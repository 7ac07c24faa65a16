(* One streamed block over a two-node network under a fault plan, and the
   random scenarios it runs under. Shared by the window tests
   (test_window.ml) and the window sweep (window_sweep.ml). *)

module Cost = Soda_base.Cost_model
module Pattern = Soda_base.Pattern
module Network = Soda_core.Network
module Recorder = Soda_obs.Recorder
module Sodal = Soda_runtime.Sodal
module Stream = Soda_facilities.Stream
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector

let patt = Pattern.well_known 0o555

(* One streamed block, client mid 1 -> sink mid 0, under a fault plan.
   Returns (send result, reassembled blocks, events, client kernel,
   finish time). The sink rejects any out-of-order chunk, so a transport
   that delivers out of order fails the send. *)
let run_stream ?(aimd = true) ~seed ~window ~loss ?plan payload =
  let cost = { Cost.default with Cost.window; Cost.maxrequests = window + 1; aimd } in
  let net = Network.create ~seed ~cost ~trace:true () in
  let kernels = List.init 2 (fun mid -> Network.add_node net ~mid) in
  if loss > 0.0 then Soda_net.Bus.set_loss_rate (Network.bus net) loss;
  let blocks = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 0)
       (Stream.sink ~pattern:patt
          ~on_block:(fun _ ~src:_ block -> blocks := Bytes.to_string block :: !blocks)
          ()));
  let sent = ref None and done_at = ref max_int in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             sent :=
               Some
                 (Stream.send env (Sodal.server ~mid:0 ~pattern:patt) ~chunk_bytes:100
                    (Bytes.of_string payload));
             done_at := Sodal.now env);
       });
  (match plan with Some p -> Injector.install net p | None -> ());
  ignore (Network.run ~until:300_000_000 net);
  let events = Recorder.events (Network.recorder net) in
  (!sent, List.rev !blocks, events, List.nth kernels 1, !done_at)

(* A 30,000-byte block: long enough at W=64 to launch more than 256
   reliable packets each way, so both ends' sequence slots wrap. *)
let long_payload = String.init 30_000 (fun i -> Char.chr ((i * 13 mod 94) + 33))

type scenario = {
  seed : int;
  window : int;
  loss_pct : int;
  dup : (int * int) option; (* duplicate the next [n] frames at t *)
  jitter : int option; (* 0..max_us per-frame delay, from t=0 *)
}

let gen_scenario st =
  let open QCheck.Gen in
  let opt g st = if bool st then Some (g st) else None in
  {
    seed = int_bound 9999 st;
    window = oneofl [ 2; 4; 8 ] st;
    loss_pct = int_bound 10 st;
    dup = opt (pair (int_range 0 100_000) (int_range 1 4)) st;
    jitter = opt (int_range 500 2_500) st;
  }

let scenario_print s =
  Printf.sprintf "seed=%d window=%d loss=%d%% dup=%s jitter=%s" s.seed s.window
    s.loss_pct
    (match s.dup with Some (at, n) -> Printf.sprintf "%d@%dus" n at | None -> "-")
    (match s.jitter with Some j -> Printf.sprintf "0..%dus" j | None -> "-")

let plan_of_scenario s =
  let steps = ref [] in
  (match s.jitter with
   | Some max_us ->
     steps :=
       { Fault_plan.at_us = 0; action = Fault_plan.Delay_jitter { min_us = 0; max_us } }
       :: !steps
   | None -> ());
  (match s.dup with
   | Some (at_us, n) ->
     steps := { Fault_plan.at_us; action = Fault_plan.Duplicate_next n } :: !steps
   | None -> ());
  List.sort (fun a b -> compare a.Fault_plan.at_us b.Fault_plan.at_us) !steps

(* [run_scenario s payload] streams [payload] under [s] at its window. *)
let run_scenario s payload =
  run_stream ~seed:(s.seed + 1) ~window:s.window
    ~loss:(float_of_int s.loss_pct /. 100.0)
    ~plan:(plan_of_scenario s) payload
