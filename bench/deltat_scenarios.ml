(* F1: "Typical Delta-t Situations" — the paper's figure shows timelines of
   sequence-number acceptance, the take-any timer, and crash-recovery
   silence. We reproduce it as annotated event traces from scripted
   scenarios, with assertions on the protocol behaviour. *)

module Cost = Soda_base.Cost_model
module Pattern = Soda_base.Pattern
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Bus = Soda_net.Bus
module Metrics = Soda_obs.Metrics
module Event = Soda_obs.Event
module Recorder = Soda_obs.Recorder

let patt = Pattern.well_known 0o222

(* The figure's annotations: every Delta-t record and kernel state change. *)
let print_marks net =
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Mark _ ->
        Printf.printf "    %8.1f ms  node %d  %s\n" (float_of_int e.Event.time_us /. 1000.0)
          e.Event.mid (Event.message e.Event.kind)
      | _ -> ())
    (Recorder.events (Network.recorder net))

(* Scenario 1: first contact creates a connection record; the bit sequence
   is then enforced ("client 2 will insist on correct SN"). *)
let scenario_first_contact () =
  Printf.printf "  scenario 1: first contact takes any SN, then insists on sequence\n";
  let net = Network.create ~seed:31 ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             ignore (Sodal.b_signal env sv ~arg:0);
             ignore (Sodal.b_signal env sv ~arg:0);
             Sodal.serve env);
       });
  ignore (Network.run ~until:2_000_000 net);
  print_marks net

(* Scenario 2: a lost ACK forces a retransmission; the receiver detects the
   duplicate SN and replays its response instead of redelivering. *)
let scenario_duplicate_rejection () =
  Printf.printf "\n  scenario 2: retransmission under loss; duplicate SN rejected\n";
  let net = Network.create ~seed:97 ~trace:true () in
  Bus.set_loss_rate (Network.bus net) 0.4;
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  let deliveries = ref 0 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             incr deliveries;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let completed = ref 0 in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for _ = 1 to 5 do
               let c = Sodal.b_signal env sv ~arg:0 in
               if c.Sodal.status = Sodal.Comp_ok then incr completed
             done;
             Sodal.serve env);
       });
  ignore (Network.run ~until:60_000_000 net);
  let retrans = Metrics.counter (Kernel.stats k1) "pkt.retransmissions" in
  let dups = Metrics.counter (Kernel.stats k0) "pkt.duplicates" in
  Printf.printf "    5/%d signals completed; %d retransmissions, %d duplicates suppressed\n"
    !completed retrans dups;
  Printf.printf "    exactly-once delivery: %s (%d handler deliveries for 5 requests)\n"
    (if !deliveries = 5 then "HELD" else "VIOLATED")
    !deliveries

(* Scenario 3: silence longer than MPL + delta-t destroys the record; the
   next contact is accepted with any SN. *)
let scenario_record_expiry () =
  Printf.printf "\n  scenario 3: record expiry after MPL + delta-t of silence (%.0f ms)\n"
    (float_of_int (Cost.record_expiry_us Cost.default) /. 1000.0);
  let net = Network.create ~seed:13 ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             ignore (Sodal.b_signal env sv ~arg:0);
             Sodal.compute env (2 * Cost.record_expiry_us Cost.default);
             ignore (Sodal.b_signal env sv ~arg:0);
             Sodal.serve env);
       });
  ignore (Network.run ~until:2_000_000_000 net);
  print_marks net

(* Scenario 4: crash, quarantine of 2 MPL + delta-t, rejoin ("OK for client
   1 to send after crash"). *)
let scenario_crash_quarantine () =
  Printf.printf "\n  scenario 4: crash quarantine of 2*MPL + delta-t (%.0f ms), then rejoin\n"
    (float_of_int (Cost.crash_quarantine_us Cost.default) /. 1000.0);
  let net = Network.create ~seed:17 ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let statuses = ref [] in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let c1 = Sodal.b_signal env sv ~arg:0 in
             statuses := c1.Sodal.status :: !statuses;
             (* server crashes at 1 s (scheduled below); a request during
                the quarantine meets only silence and fails CRASHED *)
             Sodal.compute env 1_043_000;
             let c2 = Sodal.b_signal env sv ~arg:0 in
             statuses := c2.Sodal.status :: !statuses;
             (* after the quarantine the machine is back on the network
                (boot patterns advertised, no client: UNADVERTISED) *)
             Sodal.compute env 2_000_000;
             let c3 = Sodal.b_signal env sv ~arg:0 in
             statuses := c3.Sodal.status :: !statuses;
             Sodal.serve env);
       });
  Soda_sim.Engine.schedule (Network.engine net) ~delay:1_000_000 (fun () ->
      Kernel.crash k0);
  ignore (Network.run ~until:5_000_000_000 net);
  let name = function
    | Sodal.Comp_ok -> "completed"
    | Sodal.Comp_rejected -> "rejected"
    | Sodal.Comp_crashed -> "CRASHED"
    | Sodal.Comp_unadvertised -> "UNADVERTISED"
  in
  (match List.rev !statuses with
   | [ first; second; third ] ->
     Printf.printf
       "    before crash: %s; during quarantine: %s (required: CRASHED);\n    after rejoining: %s (machine back, no client yet)\n"
       (name first) (name second) (name third)
   | _ -> ());
  print_marks net

let run () =
  scenario_first_contact ();
  scenario_duplicate_rejection ();
  scenario_record_expiry ();
  scenario_crash_quarantine ()
