(* Benchmark workloads reproducing the measurement setups of §5.5:
   streaming requester->server transactions with MAXREQUESTS outstanding,
   the server ACCEPTing either immediately in its handler or from a
   task-side queue. *)

module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Metrics = Soda_obs.Metrics
module Bus = Soda_net.Bus

type op = Signal | Put | Get | Exchange

let op_name = function Signal -> "SIGNAL" | Put -> "PUT" | Get -> "GET" | Exchange -> "EXCHANGE"

type accept_mode = In_handler | Task_queue

type result = {
  per_op_ms : float;  (** steady-state virtual time per completed op *)
  packets_per_op : float;
  retransmissions : int;
  busy_nacks : int;
  ops_measured : int;
  breakdown_ms : (Cost.category * float) list;
      (** per-op time attributed to each §5.5 category *)
  recorder : Soda_obs.Recorder.t;
      (** the run's event recorder; holds typed events when [trace] was set *)
  warm_window : int * int;  (** virtual-us interval of the measured steady state *)
}

let patt = Pattern.well_known 0o640

let server_spec ~mode ~words =
  let reply = Bytes.make (words * 2) 'R' in
  let accept_op env asker put_size =
    let into = Bytes.create (max put_size 1) in
    ignore (Sodal.accept_exchange env asker ~arg:0 ~into ~data:reply)
  in
  match mode with
  | In_handler ->
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request =
        (fun env info ->
          let into = Bytes.create (max info.Sodal.put_size 1) in
          ignore (Sodal.accept_current_exchange env ~arg:0 ~into ~data:reply));
    }
  | Task_queue ->
    let queue = Queue.create () in
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request = (fun _ info -> Queue.push (info.Sodal.asker, info.Sodal.put_size) queue);
      task =
        (fun env ->
          while true do
            if Queue.is_empty queue then Sodal.idle env
            else begin
              let asker, put_size = Queue.pop queue in
              (* the paper charges ~0.7 ms of queueing overhead per
                 transaction on the PDP-11 (§5.5) *)
              Sodal.compute env 700;
              accept_op env asker put_size
            end
          done);
    }

(* Run [n] transactions of [op] with [outstanding] requests in flight;
   measure the steady state between the [warmup]-th and last completion. *)
let stream ?(cost = Cost.default) ?(loss = 0.0) ?(seed = 271) ~op ~words
    ?(mode = In_handler) ?(n = 40) ?(warmup = 8) ?(outstanding = 3) ?(trace = false)
    ?fault_plan () =
  let net = Network.create ~seed ~cost ~trace () in
  if loss > 0.0 then Bus.set_loss_rate (Network.bus net) loss;
  let server_kernel = Network.add_node net ~mid:0 in
  let client_kernel = Network.add_node net ~mid:1 in
  ignore (Sodal.attach server_kernel (server_spec ~mode ~words));
  (* Scripted faults run against the server node (mid 0); on reboot the
     fresh incarnation gets the same server program re-attached. *)
  (match fault_plan with
   | None -> ()
   | Some plan ->
     let on_reboot ~mid kernel =
       if mid = 0 then ignore (Sodal.attach kernel (server_spec ~mode ~words))
     in
     Soda_fault.Injector.install ~on_reboot net plan);
  let stats = Kernel.stats client_kernel in
  let server_stats = Kernel.stats server_kernel in
  let bus_stats = Bus.stats (Network.bus net) in
  let completions = ref 0 in
  let t_warm = ref 0 and frames_warm = ref 0 in
  let warm_breakdown = ref [] in
  let t_end = ref 0 and frames_end = ref 0 in
  let end_breakdown = ref [] in
  let retrans_warm = ref 0 and busy_warm = ref 0 in
  let retrans_end = ref 0 and busy_end = ref 0 in
  let snapshot_breakdown () =
    List.map
      (fun c ->
        ( c,
          Metrics.counter stats (Cost.label c)
          + Metrics.counter server_stats (Cost.label c) ))
      Cost.all_categories
  in
  let data = Bytes.make (words * 2) 'D' in
  let put_data = match op with Put | Exchange -> data | Signal | Get -> Bytes.empty in
  let get_size = match op with Get | Exchange -> max (words * 2) 0 | Signal | Put -> 0 in
  let note_completion env =
    incr completions;
    if !completions = warmup then begin
      t_warm := Sodal.now env;
      frames_warm := Metrics.counter bus_stats "bus.frames_sent";
      warm_breakdown := snapshot_breakdown ();
      retrans_warm :=
        Metrics.counter stats "pkt.retransmissions"
        + Metrics.counter server_stats "pkt.retransmissions";
      busy_warm := Metrics.counter server_stats "req.busy_nacked"
    end;
    if !completions = n then begin
      t_end := Sodal.now env;
      frames_end := Metrics.counter bus_stats "bus.frames_sent";
      end_breakdown := snapshot_breakdown ();
      retrans_end :=
        Metrics.counter stats "pkt.retransmissions"
        + Metrics.counter server_stats "pkt.retransmissions";
      busy_end := Metrics.counter server_stats "req.busy_nacked"
    end
  in
  ignore
    (Sodal.attach client_kernel
       {
         Sodal.default_spec with
         on_completion = (fun env _ -> note_completion env);
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let issued = ref 0 in
             let gets = Array.init outstanding (fun _ -> Bytes.create (max get_size 1)) in
             while !completions < n do
               while !issued < n && !issued - !completions < outstanding do
                 let get_buffer =
                   if get_size = 0 then Bytes.empty else gets.(!issued mod outstanding)
                 in
                 (try
                    ignore (Sodal.exchange env sv ~arg:0 put_data ~into:get_buffer);
                    incr issued
                  with Sodal.Too_many_requests -> Sodal.compute env 1000)
               done;
               Sodal.idle env
             done;
             Sodal.serve env);
       });
  ignore (Network.run ~until:1_200_000_000 net);
  let measured = n - warmup in
  if !completions < n then
    failwith
      (Printf.sprintf "workload %s/%d words did not finish: %d/%d" (op_name op) words
         !completions n);
  let per_op_ms = float_of_int (!t_end - !t_warm) /. float_of_int measured /. 1000.0 in
  let packets_per_op = float_of_int (!frames_end - !frames_warm) /. float_of_int measured in
  let breakdown_ms =
    List.map2
      (fun (c, e) (_, w) -> (c, float_of_int (e - w) /. float_of_int measured /. 1000.0))
      !end_breakdown !warm_breakdown
  in
  {
    per_op_ms;
    packets_per_op;
    retransmissions = !retrans_end - !retrans_warm;
    busy_nacks = !busy_end - !busy_warm;
    ops_measured = measured;
    breakdown_ms;
    recorder = Network.recorder net;
    warm_window = (!t_warm, !t_end);
  }

(* Open-loop Zipf workload at scale (SCALE section): thin wrapper over
   Soda_core.Openloop — see lib/core/openloop.ml and docs/PERFORMANCE.md
   for the methodology (open vs closed loop, Zipf parameters, sizing). *)
let scale ?(profile_gc = true) ~nodes ~requests () =
  let cfg = Soda_core.Openloop.config ~nodes ~requests in
  Soda_core.Openloop.run { cfg with Soda_core.Openloop.profile_gc }

(* Blocking SIGNAL latency (B_SIGNAL of §4.1.1): strictly sequential. *)
let blocking_signal ?(cost = Cost.default) ?(seed = 277) ?(mode = In_handler) ?(n = 30)
    ?(warmup = 5) () =
  let net = Network.create ~seed ~cost () in
  let server_kernel = Network.add_node net ~mid:0 in
  let client_kernel = Network.add_node net ~mid:1 in
  ignore (Sodal.attach server_kernel (server_spec ~mode ~words:0));
  let t_warm = ref 0 and t_end = ref 0 in
  let done_ = ref 0 in
  ignore
    (Sodal.attach client_kernel
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to n do
               if i = warmup + 1 then t_warm := Sodal.now env;
               let c = Sodal.b_signal env sv ~arg:0 in
               if c.Sodal.status <> Sodal.Comp_ok then failwith "blocking signal failed";
               incr done_
             done;
             t_end := Sodal.now env;
             Sodal.serve env);
       });
  ignore (Network.run ~until:1_200_000_000 net);
  if !done_ < n then failwith "blocking workload did not finish";
  float_of_int (!t_end - !t_warm) /. float_of_int (n - warmup) /. 1000.0
