(* Open-loop workload generator for scale runs.

   Unlike the closed-loop §5.5 workloads (bench/workloads.ml), where a
   client issues the next request only after a completion, arrivals here
   come from independent per-node Poisson processes that do NOT slow down
   when the system falls behind — the defining property of an open-loop
   generator. Overload shows up as shed requests (MAXREQUESTS exhausted at
   the issuing kernel) and growing completion latency, not as a silently
   reduced offered rate.

   Every node is both a server (advertising one well-known pattern,
   accepting every arrival SIGNAL-style) and a client. Arrival n at a node
   picks a key from a Zipf distribution and SIGNALs the key's home node
   (key mod nodes, skipping itself); every [fanout_every]-th arrival
   additionally scatters [fanout] sub-requests to the following nodes and
   counts a gather when all of them complete.

   Determinism: per-node RNGs are split off the engine RNG at setup in mid
   order, all mutable state lives in arrays indexed by node or in
   hashtables that are never iterated, so a run is a pure function of the
   config — the replay regression in test/test_scale.ml holds the SCALE
   bench to that. *)

module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Zipf = Soda_sim.Zipf
module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model
module Bus = Soda_net.Bus

type config = {
  nodes : int;
  requests : int;  (** root arrivals to offer across the whole network *)
  mean_interarrival_us : int;  (** per-node Poisson mean *)
  zipf_theta : float;
  keys : int;
  fanout : int;  (** scatter width; 0 disables scatter-gather *)
  fanout_every : int;  (** every n-th root arrival scatters *)
  seed : int;
  profile_gc : bool;
}

let config ~nodes ~requests =
  {
    nodes;
    requests;
    (* Per-node mean scaling with the node count keeps the AGGREGATE
       offered rate constant (~1000 req/s of simulated time) as N grows:
       the Zipf-hot node stays below its handler-serialization capacity,
       so runs measure simulator throughput rather than queueing collapse. *)
    mean_interarrival_us = 1000 * nodes;
    zipf_theta = 0.99;
    keys = 4 * nodes;
    fanout = 4;
    fanout_every = 16;
    seed = 97;
    profile_gc = false;
  }

type result = {
  offered : int;  (** root arrival events fired *)
  issued : int;  (** requests the kernels actually admitted (roots + scatters) *)
  completed : int;
  failed : int;  (** completions with CRASHED/UNADVERTISED status *)
  shed : int;  (** open-loop arrivals refused with MAXREQUESTS exhausted *)
  gathers : int;  (** scatter groups whose every sub-request completed *)
  virtual_us : int;  (** final virtual clock *)
  net : Network.t;  (** the run's network, for engine/bus/pool introspection *)
}

let patt = Pattern.well_known 0o644

(* First arrivals wait out node boot (the Booting handler must run and
   advertise before traffic lands, or early SIGNALs complete UNADVERTISED). *)
let start_us = 50_000

let run cfg =
  if cfg.nodes < 2 then invalid_arg "Openloop.run: need at least two nodes";
  if cfg.requests < 0 then invalid_arg "Openloop.run: negative request count";
  if cfg.mean_interarrival_us < 1 then
    invalid_arg "Openloop.run: mean interarrival must be >= 1us";
  if cfg.fanout < 0 || cfg.fanout_every < 1 then
    invalid_arg "Openloop.run: bad fanout config";
  let cost = { Cost.default with Cost.maxrequests = max 8 (cfg.fanout + 1) } in
  (* A 1 Gbps medium: at thousands of stations the default 1 Mbps Megalink
     saturates immediately and the run measures medium queueing, not the
     simulator. The protocol stack is bandwidth-agnostic. *)
  let bus_config = { Bus.default_config with Bus.bandwidth_bps = 1_000_000_000 } in
  let net = Network.create ~seed:cfg.seed ~cost ~bus_config () in
  let engine = Network.engine net in
  let zipf = Zipf.create ~n:cfg.keys ~theta:cfg.zipf_theta in
  let offered = ref 0 in
  let issued = ref 0 in
  let completed = ref 0 in
  let failed = ref 0 in
  let shed = ref 0 in
  let gathers = ref 0 in
  let kernels = Array.make cfg.nodes None in
  (* tid -> shared countdown of its scatter group (per issuing node; only
     ever probed and removed by tid, never iterated). *)
  let gather_of = Array.init cfg.nodes (fun _ -> Hashtbl.create 16) in
  for i = 0 to cfg.nodes - 1 do
    let kernel = Network.add_node net ~mid:i in
    kernels.(i) <- Some kernel;
    let invoke_handler event =
      match event with
      | Types.Booting _ ->
        ignore (Kernel.advertise kernel patt);
        Kernel.endhandler kernel
      | Types.Request_arrival { requester; _ } ->
        (* SIGNAL service: accept with no data either way; the handler
           stays busy until the accept completes (as in the runtime's
           handler fibers), which is what serializes a hot node. *)
        Kernel.accept kernel ~requester ~arg:0 ~get_buffer:Bytes.empty ~put:Bytes.empty
          ~on_done:(fun _ -> Kernel.endhandler kernel)
      | Types.Request_completion { requester; status; _ } ->
        (match status with
         | Types.Completed -> incr completed
         | Types.Crashed | Types.Unadvertised -> incr failed);
        let tbl = gather_of.(i) in
        (match Hashtbl.find tbl requester.Types.rq_tid with
         | remaining ->
           Hashtbl.remove tbl requester.Types.rq_tid;
           decr remaining;
           if !remaining = 0 then incr gathers
         | exception Not_found -> ());
        Kernel.endhandler kernel
    in
    Kernel.attach_client kernel ~parent:0 { Kernel.invoke_handler; on_kill = ignore }
  done;
  let kernel_of i = match kernels.(i) with Some k -> k | None -> assert false in
  (* One RNG per node, split in mid order after node setup: arrival timing
     and key choice are independent of every other node's stream. *)
  let rngs = Array.init cfg.nodes (fun _ -> Rng.split (Engine.rng engine)) in
  let issue src dst =
    let kernel = kernel_of src in
    let server = { Types.sv_mid = Types.Mid dst; Types.sv_pattern = patt } in
    match Kernel.request kernel ~server ~arg:0 ~put:Bytes.empty ~get_buffer:Bytes.empty with
    | Ok tid ->
      incr issued;
      Some tid
    | Error Kernel.Too_many_requests ->
      (* The open-loop generator does not wait: the arrival is shed and
         the process keeps its schedule. *)
      incr shed;
      None
    | Error (Kernel.Request_to_self | Kernel.Data_too_large | Kernel.Client_dead) ->
      failwith "Openloop.issue: unexpected request error"
  in
  (* dst for key as seen from node [src]: the key's home node, skipping
     [src] itself (no local messages, §3.3). *)
  let home src key =
    let dst = key mod cfg.nodes in
    if dst = src then (dst + 1) mod cfg.nodes else dst
  in
  let arrival src =
    let n = !offered in
    offered := n + 1;
    let rng = rngs.(src) in
    let key = Zipf.sample zipf rng in
    ignore (issue src (home src key));
    if cfg.fanout > 0 && n mod cfg.fanout_every = 0 then begin
      (* Scatter: sub-requests to the nodes following the key's home. *)
      let remaining = ref 0 in
      let tbl = gather_of.(src) in
      for j = 1 to cfg.fanout do
        match issue src (home src (key + j)) with
        | Some tid ->
          incr remaining;
          Hashtbl.replace tbl tid remaining
        | None -> ()
      done
      (* a fully-shed scatter registers nothing and never gathers *)
    end
  in
  let next_delay rng =
    let u = Rng.float rng 1.0 in
    max 1 (int_of_float (-.float_of_int cfg.mean_interarrival_us *. log (1.0 -. u)))
  in
  (* One timer per source, re-armed at each arrival: an arrival
     allocates no callback and no shot. *)
  let timers = ref [||] in
  let arrive src =
    if !offered < cfg.requests then begin
      arrival src;
      if !offered < cfg.requests then
        Engine.arm engine !timers.(src) ~delay:(next_delay rngs.(src))
    end
  in
  timers :=
    Array.init cfg.nodes (fun src -> Engine.timer ~tag:"client" engine (fun () -> arrive src));
  for i = 0 to cfg.nodes - 1 do
    Engine.arm engine !timers.(i) ~delay:(start_us + next_delay rngs.(i))
  done;
  if cfg.profile_gc then Engine.set_profile_gc engine true;
  (* Horizon: generous multiple of the expected arrival span plus drain
     slack; quiescence normally ends the run well before. *)
  let span = cfg.requests / cfg.nodes * cfg.mean_interarrival_us in
  let horizon = start_us + (span * 4) + 60_000_000 in
  let virtual_us = Network.run ~until:horizon net in
  {
    offered = !offered;
    issued = !issued;
    completed = !completed;
    failed = !failed;
    shed = !shed;
    gathers = !gathers;
    virtual_us;
    net;
  }
