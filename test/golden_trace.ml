(* Golden-trace generator: runs a fixed-seed scenario with tracing on and
   prints the JSONL export on stdout. The dune rules diff the output
   against the checked-in snapshots, so any change to event emission,
   protocol timing or the exporter shows up as a reviewable diff
   (`dune promote` accepts it).

   Scenarios (selected by argv):
   - "pingpong" (default): window 1 — the degenerate sliding window must
     reproduce the seed's alternating-bit trace byte for byte;
   - "windowed": window 4 — pins the window<=8 single-extension-byte wire
     format and the AIMD ramp (cwnd growth on clean cumulative acks);
   - "busy": window 1, three clients pipelining PUTs at a slow handler —
     pins the BUSY retry path: backoff, the requeued retry reusing its
     slot, and granted DATA overtaking a backing-off request. *)

module Network = Soda_core.Network
module Sodal = Soda_runtime.Sodal
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model

let pingpong () =
  let patt = Pattern.well_known 0o321 in
  let cost = { Cost.default with Cost.window = 1 } in
  let net = Network.create ~seed:2025 ~cost ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             ignore
               (Sodal.accept_current_exchange env ~arg:0 ~into:(Bytes.create 4)
                  ~data:(Bytes.of_string "pong")));
       });
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for _ = 1 to 3 do
               let into = Bytes.create 4 in
               let c = Sodal.b_exchange env sv ~arg:0 (Bytes.of_string "ping") ~into in
               if c.Sodal.status <> Sodal.Comp_ok then failwith "exchange failed"
             done;
             Sodal.serve env);
       });
  net

let windowed () =
  let patt = Pattern.well_known 0o321 in
  let cost = { Cost.default with Cost.window = 4; maxrequests = 5 } in
  let net = Network.create ~seed:2025 ~cost ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (* six pipelined signals: enough to open the window past the
                initial cwnd and exercise cumulative piggybacked acks *)
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let pending = ref 0 in
             for i = 1 to 6 do
               while !pending >= 4 do
                 Sodal.idle env
               done;
               let tid = Sodal.signal env sv ~arg:i in
               incr pending;
               Sodal.on_completion_of env tid (fun _ -> decr pending)
             done;
             while !pending > 0 do
               Sodal.idle env
             done;
             Sodal.serve env);
       });
  net

let busy () =
  let patt = Pattern.well_known 0o321 in
  let cost = { Cost.default with Cost.window = 1 } in
  let net = Network.create ~seed:2025 ~cost ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             Sodal.compute env 20_000;
             ignore (Sodal.accept_current_put env ~arg:0 ~into:(Bytes.create 64)));
       });
  for mid = 1 to 3 do
    let k = Network.add_node net ~mid in
    ignore
      (Sodal.attach k
         {
           Sodal.default_spec with
           task =
             (fun env ->
               (* three clients, three PUTs outstanding each, against one
                  slow handler: most requests bounce BUSY at least once *)
               let sv = Sodal.server ~mid:0 ~pattern:patt in
               let pending = ref 0 in
               for i = 1 to 6 do
                 while !pending >= 3 do
                   Sodal.idle env
                 done;
                 let tid = Sodal.put env sv ~arg:i (Bytes.make (16 * (i + mid)) 'b') in
                 incr pending;
                 Sodal.on_completion_of env tid (fun _ -> decr pending)
               done;
               while !pending > 0 do
                 Sodal.idle env
               done;
               Sodal.serve env);
         })
  done;
  net

let () =
  let net =
    match if Array.length Sys.argv > 1 then Sys.argv.(1) else "pingpong" with
    | "pingpong" -> pingpong ()
    | "windowed" -> windowed ()
    | "busy" -> busy ()
    | s -> failwith (Printf.sprintf "unknown golden scenario %S" s)
  in
  ignore (Network.run ~until:60_000_000 net);
  print_string (Soda_obs.Export.jsonl (Soda_obs.Recorder.events (Network.recorder net)))
