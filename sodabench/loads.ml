(* The six workloads of the benchmark. Each runs one whole simulated
   network from its seed and returns every completed op's virtual-time
   latency, the failure accounting and the violations of its correctness
   checks. Why each workload exists is in [all] below and in README.md.

   The seed makes the inputs: the engine seed (bus loss, backoff jitter,
   store and SCD scripts, open-loop arrivals) and a bench-side stream that
   draws client think times and payload bytes. The same seed replays the
   same run bit for bit. *)

module Cost = Soda_base.Cost_model
module Pattern = Soda_base.Pattern
module Types = Soda_base.Types
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Openloop = Soda_core.Openloop
module Sodal = Soda_runtime.Sodal
module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Zipf = Soda_sim.Zipf
module Bus = Soda_net.Bus
module Fault_plan = Soda_fault.Fault_plan
module Store_harness = Soda_store.Harness
module Scd_harness = Soda_scd.Harness

(* Wall-clock reads around the bench's own calls into a layer: REQUEST and
   ACCEPT primitives, either the runtime's (Sodal) or the kernel's. Only a
   traced run switches them on, so the untraced run never reads the clock.
   A Sodal primitive suspends its fiber for the trap's virtual cost, so its
   time includes the engine events that fire meanwhile; a Kernel call does
   not suspend. *)
module Calls = struct
  type t = {
    on : bool;
    mutable request_s : float;
    mutable requests : int;
    mutable accept_s : float;
    mutable accepts : int;
  }

  let create on = { on; request_s = 0.0; requests = 0; accept_s = 0.0; accepts = 0 }

  let timed t add f =
    if not t.on then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      match f () with
      | v ->
        add t (Unix.gettimeofday () -. t0);
        v
      | exception e ->
        add t (Unix.gettimeofday () -. t0);
        raise e
    end

  let request t f =
    timed t (fun t dt -> t.request_s <- t.request_s +. dt; t.requests <- t.requests + 1) f

  let accept t f =
    timed t (fun t dt -> t.accept_s <- t.accept_s +. dt; t.accepts <- t.accepts + 1) f

  let mean_us total n = if n = 0 then 0.0 else total /. float_of_int n *. 1e6
end

type result = {
  net : Network.t;
  latencies_us : int array;  (** one per completed op, completion order *)
  attempted : int;
  failed : int;  (** attempted ops that failed, were shed or never finished *)
  first_issue_us : int;
  last_done_us : int;
  errors : string list;  (** violated correctness checks; [] when correct *)
  layer : (string * float) list;  (** per-layer metrics only this workload sees *)
}

(* Per-op bookkeeping shared by the bench-side drivers, sized for every
   attempted op. *)
type log = {
  lat : int array;
  mutable n : int;
  mutable first : int;
  mutable last : int;
  mutable failures : int;
  mutable errors : string list;
}

let log_create capacity =
  { lat = Array.make (max capacity 1) 0; n = 0; first = max_int; last = 0; failures = 0;
    errors = [] }

let issued log ~at = if at < log.first then log.first <- at

let completed log ~start ~stop =
  log.lat.(log.n) <- stop - start;
  log.n <- log.n + 1;
  if stop > log.last then log.last <- stop

(* Keep the first few messages: any one fails the run. *)
let error log msg = if List.length log.errors < 8 then log.errors <- msg :: log.errors

let op_failed log msg =
  log.failures <- log.failures + 1;
  error log msg

let finish log ~net ~attempted ~layer =
  let unfinished = attempted - log.n - log.failures in
  if unfinished > 0 then error log (Printf.sprintf "%d ops unfinished at the horizon" unfinished);
  if log.failures > 0 then error log (Printf.sprintf "%d ops failed" log.failures);
  {
    net;
    latencies_us = Array.sub log.lat 0 log.n;
    attempted;
    failed = attempted - log.n;
    first_issue_us = (if log.n = 0 then 0 else log.first);
    last_done_us = log.last;
    errors = List.rev log.errors;
    layer;
  }

let ops_at ~scale full = int_of_float (float_of_int full *. scale)

let runtime_layer calls =
  [
    ("runtime.request_call_us", Calls.mean_us calls.Calls.request_s calls.Calls.requests);
    ("runtime.accept_call_us", Calls.mean_us calls.Calls.accept_s calls.Calls.accepts);
  ]

(* The [p]th percentile, in ms, of integer-microsecond latencies sorted
   ascending. The nearest-rank sample v stands for a time in
   [v - 0.5, v + 0.5) us, and the percentile is interpolated inside that
   tick from the exact counts of samples below v and equal to v (the
   median of grouped data). A run whose latencies sit in a few exact
   values (zipf_open puts 9 in 10 ops at one) still reads how many ops
   share them. *)
let percentile_ms sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int n in
    let v = sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil rank) - 1))) in
    (* first index whose sample is >= x *)
    let rec first_at_least x lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sorted.(mid) < x then first_at_least x (mid + 1) hi else first_at_least x lo mid
    in
    let below = first_at_least v 0 n in
    let equal = first_at_least (v + 1) below n - below in
    (float_of_int v -. 0.5 +. ((rank -. float_of_int below) /. float_of_int equal)) /. 1000.0
  end

let ms_percentiles name lat =
  let sorted = Array.of_list lat in
  Array.sort compare sorted;
  [
    (name ^ "_p50_ms", percentile_ms sorted 50.0);
    (name ^ "_p99_ms", percentile_ms sorted 99.0);
  ]

(* Client think time before each REQUEST, uniform in [0, think_us): the
   seed-driven input of the closed loops. Three requests outstanding keep
   the server saturated through it, so goodput stays at the paper's
   figure while each op's latency depends on the draw. *)
let think_us = 2_000

(* ---- signal_stream, bulk_putget: one client, one server, 3 outstanding ---- *)

let stream_patt = Pattern.well_known 0o640

(* Header-only SIGNALs, or PUTs and GETs in turn, each moving a seeded
   number of words between these bounds. *)
type mix = Signals | Put_get

let bulk_words = (900, 1100)

let is_prefix buf ~of_ =
  Bytes.length buf <= Bytes.length of_ && Bytes.equal buf (Bytes.sub of_ 0 (Bytes.length buf))

let closed_loop ~mix ~ops ~seed ~trace ~calls =
  let net = Network.create ~seed ~cost:Cost.default ~trace () in
  let server = Network.add_node net ~mid:0 in
  let client = Network.add_node net ~mid:1 in
  let rng = Rng.create ~seed in
  let lo, hi = bulk_words in
  let payload () =
    match mix with
    | Signals -> Bytes.empty
    | Put_get -> Bytes.init (2 * hi) (fun _ -> Char.chr (Rng.int rng 256))
  in
  let put_data = payload () in
  let reply = payload () in
  let log = log_create ops in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env stream_patt);
         on_request =
           (fun env info ->
             if info.Sodal.put_size > 0 then begin
               let into = Bytes.create info.Sodal.put_size in
               let status, got =
                 Calls.accept calls (fun () -> Sodal.accept_current_put env ~arg:0 ~into)
               in
               if status <> Types.Accept_success || got <> info.Sodal.put_size
                  || not (is_prefix into ~of_:put_data)
               then error log "PUT data arrived short or damaged"
             end
             else if info.Sodal.get_size > 0 then
               let data = Bytes.sub reply 0 info.Sodal.get_size in
               ignore (Calls.accept calls (fun () -> Sodal.accept_current_get env ~arg:0 ~data))
             else ignore (Calls.accept calls (fun () -> Sodal.accept_current_signal env ~arg:0)));
       });
  let outstanding = 3 in
  let finished = ref 0 in
  ignore
    (Sodal.attach client
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:stream_patt in
             let issued_ops = ref 0 in
             while !finished < ops do
               while !issued_ops < ops && !issued_ops - !finished < outstanding do
                 let think = Rng.int rng think_us in
                 if think > 0 then Sodal.compute env think;
                 let is_get = mix = Put_get && !issued_ops land 1 = 1 in
                 let bytes = match mix with Signals -> 0 | Put_get -> 2 * (lo + Rng.int rng (hi - lo + 1)) in
                 let into = if is_get then Bytes.make bytes '\000' else Bytes.empty in
                 let start = Sodal.now env in
                 match
                   Calls.request calls (fun () ->
                       match mix with
                       | Signals -> Sodal.signal env sv ~arg:0
                       | Put_get when is_get -> Sodal.get env sv ~arg:0 ~into
                       | Put_get -> Sodal.put env sv ~arg:0 (Bytes.sub put_data 0 bytes))
                 with
                 | tid ->
                   issued log ~at:start;
                   incr issued_ops;
                   Sodal.on_completion_of env tid (fun c ->
                       incr finished;
                       if c.Sodal.status <> Sodal.Comp_ok then op_failed log "request did not complete OK"
                       else begin
                         completed log ~start ~stop:(Sodal.now env);
                         let moved = if is_get then c.Sodal.get_transferred else c.Sodal.put_transferred in
                         if moved <> bytes || not (is_prefix into ~of_:reply) then
                           error log "a transfer moved a short byte count or damaged data"
                       end)
                 | exception Sodal.Too_many_requests -> Sodal.compute env 1000
               done;
               Sodal.idle env
             done;
             Sodal.serve env);
       });
  (* Horizon from the op count: generous per-op slack past the ~40 ms a
     1000-word transfer takes, so a slower transport still finishes. *)
  ignore (Network.run ~until:(60_000_000 + (ops * 1_000_000)) net);
  finish log ~net ~attempted:ops ~layer:(runtime_layer calls)

(* ---- incast32: 32 clients pour SIGNALs onto one server ---- *)

let incast_patt = Pattern.well_known 0o655

(* Clients start within this window of each other; the seed picks where. *)
let incast_start_us = 1_000

let incast ~clients ~per_client ~seed ~trace ~calls =
  let cost = { Cost.default with Cost.window = 64; maxrequests = 65; aimd = true } in
  let net = Network.create ~seed ~cost ~trace () in
  let server = Network.add_node net ~mid:0 in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env incast_patt);
         on_request =
           (fun env _ -> ignore (Calls.accept calls (fun () -> Sodal.accept_current_signal env ~arg:0)));
       });
  let total = clients * per_client in
  let log = log_create total in
  let rng = Rng.create ~seed in
  for c = 1 to clients do
    let kernel = Network.add_node net ~mid:c in
    let start_at = Rng.int rng incast_start_us in
    ignore
      (Sodal.attach kernel
         {
           Sodal.default_spec with
           task =
             (fun env ->
               Sodal.compute env start_at;
               let sv = Sodal.server ~mid:0 ~pattern:incast_patt in
               let pending = ref 0 in
               for _ = 1 to per_client do
                 while !pending >= 8 do
                   Sodal.idle env
                 done;
                 let start = Sodal.now env in
                 let tid = Calls.request calls (fun () -> Sodal.signal env sv ~arg:0) in
                 issued log ~at:start;
                 incr pending;
                 Sodal.on_completion_of env tid (fun c ->
                     decr pending;
                     if c.Sodal.status <> Sodal.Comp_ok then op_failed log "SIGNAL did not complete OK"
                     else completed log ~start ~stop:(Sodal.now env))
               done;
               while !pending > 0 do
                 Sodal.idle env
               done;
               Sodal.serve env);
         })
  done;
  ignore (Network.run ~until:(60_000_000 + (total * 100_000)) net);
  finish log ~net ~attempted:total ~layer:(runtime_layer calls)

(* ---- zipf_open: the SCALE open loop, timed per root arrival ---- *)

(* Accounting of one open-loop run, in Openloop.result's terms (requests,
   not ops) plus the engine's fired count: the smoke check holds this
   driver to Openloop.run on the same config. *)
type open_counts = {
  offered : int;
  issued : int;
  done_ok : int;
  done_failed : int;
  shed : int;
  gathers : int;
  fired : int;
}

type root = { due : int; mutable pending : int; mutable ok : bool }

(* Openloop.run's pattern and first-arrival delay (not exported). *)
let open_patt = Pattern.well_known 0o644
let open_start_us = 50_000

(* The same traffic as Soda_core.Openloop.run (same network, RNG splits,
   arrival schedule, keys and scatter), plus per-op timing: an op is one
   root arrival with its scatter group, due at its arrival time and done
   at its last completion. An op with a shed or failed request fails. *)
let open_loop (cfg : Openloop.config) ~trace ~calls =
  let cost = { Cost.default with Cost.maxrequests = max 8 (cfg.fanout + 1) } in
  let bus_config = { Bus.default_config with Bus.bandwidth_bps = 1_000_000_000 } in
  let net = Network.create ~seed:cfg.seed ~cost ~bus_config ~trace () in
  let engine = Network.engine net in
  let zipf = Zipf.create ~n:cfg.keys ~theta:cfg.zipf_theta in
  let offered = ref 0 and issued_n = ref 0 and done_ok = ref 0 and done_failed = ref 0 in
  let shed = ref 0 and gathers = ref 0 in
  let issued_roots = ref 0 and shed_roots = ref 0 in
  let log = log_create cfg.requests in
  let settle root =
    if root.ok then completed log ~start:root.due ~stop:(Engine.now engine)
    else log.failures <- log.failures + 1
  in
  let kernels = Array.make cfg.nodes None in
  let gather_of = Array.init cfg.nodes (fun _ -> Hashtbl.create 16) in
  let root_of = Array.init cfg.nodes (fun _ -> Hashtbl.create 16) in
  for i = 0 to cfg.nodes - 1 do
    let kernel = Network.add_node net ~mid:i in
    kernels.(i) <- Some kernel;
    let invoke_handler = function
      | Types.Booting _ ->
        ignore (Kernel.advertise kernel open_patt);
        Kernel.endhandler kernel
      | Types.Request_arrival { requester; _ } ->
        Calls.accept calls (fun () ->
            Kernel.accept kernel ~requester ~arg:0 ~get_buffer:Bytes.empty ~put:Bytes.empty
              ~on_done:(fun _ -> Kernel.endhandler kernel))
      | Types.Request_completion { requester; status; _ } ->
        let tid = requester.Types.rq_tid in
        (match status with
         | Types.Completed -> incr done_ok
         | Types.Crashed | Types.Unadvertised -> incr done_failed);
        (match Hashtbl.find gather_of.(i) tid with
         | remaining ->
           Hashtbl.remove gather_of.(i) tid;
           decr remaining;
           if !remaining = 0 then incr gathers
         | exception Not_found -> ());
        (match Hashtbl.find root_of.(i) tid with
         | root ->
           Hashtbl.remove root_of.(i) tid;
           if status <> Types.Completed then root.ok <- false;
           root.pending <- root.pending - 1;
           if root.pending = 0 then settle root
         | exception Not_found -> ());
        Kernel.endhandler kernel
    in
    Kernel.attach_client kernel ~parent:0 { Kernel.invoke_handler; on_kill = ignore }
  done;
  let kernel_of i = match kernels.(i) with Some k -> k | None -> assert false in
  let rngs = Array.init cfg.nodes (fun _ -> Rng.split (Engine.rng engine)) in
  let issue root src dst =
    let server = { Types.sv_mid = Types.Mid dst; Types.sv_pattern = open_patt } in
    match
      Calls.request calls (fun () ->
          Kernel.request (kernel_of src) ~server ~arg:0 ~put:Bytes.empty ~get_buffer:Bytes.empty)
    with
    | Ok tid ->
      incr issued_n;
      root.pending <- root.pending + 1;
      Hashtbl.replace root_of.(src) tid root;
      Some tid
    | Error Kernel.Too_many_requests ->
      incr shed;
      root.ok <- false;
      None
    | Error (Kernel.Request_to_self | Kernel.Data_too_large | Kernel.Client_dead) ->
      failwith "open loop: unexpected request error"
  in
  let home src key =
    let dst = key mod cfg.nodes in
    if dst = src then (dst + 1) mod cfg.nodes else dst
  in
  let arrival src =
    let n = !offered in
    offered := n + 1;
    let root = { due = Engine.now engine; pending = 0; ok = true } in
    issued log ~at:root.due;
    let key = Zipf.sample zipf rngs.(src) in
    (match issue root src (home src key) with
     | Some _ -> incr issued_roots
     | None -> incr shed_roots);
    if cfg.fanout > 0 && n mod cfg.fanout_every = 0 then begin
      let remaining = ref 0 in
      for j = 1 to cfg.fanout do
        match issue root src (home src (key + j)) with
        | Some tid ->
          incr remaining;
          Hashtbl.replace gather_of.(src) tid remaining
        | None -> ()
      done
    end;
    if root.pending = 0 then settle root
  in
  let next_delay rng =
    let u = Rng.float rng 1.0 in
    max 1 (int_of_float (-.float_of_int cfg.mean_interarrival_us *. Stdlib.log (1.0 -. u)))
  in
  let rec arrive src () =
    if !offered < cfg.requests then begin
      arrival src;
      if !offered < cfg.requests then
        ignore (Engine.schedule ~tag:"client" engine ~delay:(next_delay rngs.(src)) (arrive src))
    end
  in
  for i = 0 to cfg.nodes - 1 do
    ignore
      (Engine.schedule ~tag:"client" engine
         ~delay:(open_start_us + next_delay rngs.(i))
         (arrive i))
  done;
  let span = cfg.requests / cfg.nodes * cfg.mean_interarrival_us in
  ignore (Network.run ~until:(open_start_us + (span * 4) + 60_000_000) net);
  if !offered <> !issued_roots + !shed_roots then
    error log "open loop: offered <> issued roots + shed roots";
  if !done_ok + !done_failed <> !issued_n then
    error log "open loop: completed + failed <> issued requests";
  if !shed > 0 then error log (Printf.sprintf "open loop: %d requests shed" !shed);
  let counts =
    {
      offered = !offered;
      issued = !issued_n;
      done_ok = !done_ok;
      done_failed = !done_failed;
      shed = !shed;
      gathers = !gathers;
      fired = (Engine.counters engine).Engine.fired;
    }
  in
  let layer =
    [
      ("kernel.request_call_us", Calls.mean_us calls.Calls.request_s calls.Calls.requests);
      ("kernel.accept_call_us", Calls.mean_us calls.Calls.accept_s calls.Calls.accepts);
      ("kernel.shed_ratio", float_of_int !shed /. float_of_int (max 1 (!issued_n + !shed)));
    ]
  in
  (finish log ~net ~attempted:cfg.requests ~layer, counts)

let zipf_config ~requests ~seed = { (Openloop.config ~nodes:256 ~requests) with Openloop.seed }

(* ---- store_quorum, scd_snapshot: the subsystems' own harnesses ---- *)

(* Clients sleep this long before their first op while servers boot. *)
let boot_us = 50_000

(* The horizon for a zero-op run: set-up only, stopping at the first op. *)
let boot_horizon ops = if ops = 0 then Some boot_us else None

let store ~ops ~seed ~trace =
  let plan =
    [
      { Fault_plan.at_us = 5_000_000; action = Fault_plan.Crash 4 };
      { Fault_plan.at_us = 15_000_000; action = Fault_plan.Reboot 4 };
    ]
  in
  let clients = 8 in
  let r =
    Store_harness.run ~n:5 ~clients ~ops ~keys:16 ~seed ~loss:0.02 ~think_us:10_000 ~plan ~trace
      ?horizon_us:(boot_horizon ops) ()
  in
  let log = log_create (clients * ops) in
  let written = Hashtbl.create 1024 in
  List.iter
    (fun (op : Store_harness.op) ->
      match op.kind with `Write v -> Hashtbl.replace written v op.start_us | `Read -> ())
    r.Store_harness.history;
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun (op : Store_harness.op) ->
      issued log ~at:op.start_us;
      let lat = op.end_us - op.start_us in
      match op.outcome with
      | `No_quorum -> op_failed log "store op found no quorum"
      | `Written ->
        writes := lat :: !writes;
        completed log ~start:op.start_us ~stop:op.end_us
      | `Ok value ->
        reads := lat :: !reads;
        completed log ~start:op.start_us ~stop:op.end_us;
        (match value with
         | None -> ()
         | Some v ->
           (match Hashtbl.find_opt written v with
            | Some start when start <= op.end_us -> ()
            | Some _ | None ->
              error log (Printf.sprintf "read of key %d returned %S, never written before" op.key v))))
    r.Store_harness.history;
  if ops > 0 && r.Store_harness.clients_done <> r.Store_harness.clients_total then
    error log "store: a client script did not finish";
  let layer = ms_percentiles "store.read" !reads @ ms_percentiles "store.write" !writes in
  finish log ~net:r.Store_harness.net ~attempted:(clients * ops) ~layer

(* Harness.check_delivery's properties — validity, integrity, and every
   pair of members' delivered prefixes comparable — checked in
   O(members^2 x messages x log) instead of comparing every pair of
   prefixes, which takes minutes at this size. Two members' prefixes are
   incomparable exactly when some m1, m2 are delivered in opposite
   orders: pos_i m1 < pos_i m2 and pos_j m2 < pos_j m1, where pos is the
   index of the delivered set holding the message (infinite when never
   delivered). Small runs also run the harness checker itself. *)
let scd_delivery ~broadcast_sns ~deliveries =
  let exception Violation of string in
  let valid = Hashtbl.create 256 in
  Array.iteri (fun i sns -> List.iter (fun sn -> Hashtbl.replace valid (i, sn) ()) sns) broadcast_sns;
  try
    let pos =
      Array.mapi
        (fun i sets ->
          let tbl = Hashtbl.create 256 in
          List.iteri
            (fun k set ->
              List.iter
                (fun id ->
                  if Hashtbl.mem tbl id then
                    raise (Violation (Printf.sprintf "integrity: member %d delivered a message twice" i));
                  if not (Hashtbl.mem valid id) then
                    raise (Violation (Printf.sprintf "validity: member %d delivered a message never broadcast" i));
                  Hashtbl.replace tbl id k)
                set)
            sets;
          tbl)
        deliveries
    in
    let at tbl id = Option.value (Hashtbl.find_opt tbl id) ~default:max_int in
    Array.iteri
      (fun i pi ->
        Array.iteri
          (fun j pj ->
            if i < j then begin
              let ids = Hashtbl.create 256 in
              Hashtbl.iter (fun id _ -> Hashtbl.replace ids id ()) pi;
              Hashtbl.iter (fun id _ -> Hashtbl.replace ids id ()) pj;
              let order = Array.of_seq (Seq.map (fun (id, ()) -> (at pi id, at pj id)) (Hashtbl.to_seq ids)) in
              Array.sort compare order;
              (* scan groups of equal pos_i; no later group may hold a
                 message j delivered before one of an earlier group *)
              let max_before = ref (-1) and group_max = ref (-1) and group = ref (-1) in
              Array.iter
                (fun (a, b) ->
                  if a <> !group then begin
                    max_before := max !max_before !group_max;
                    group := a;
                    group_max := -1
                  end;
                  if b < !max_before then
                    raise
                      (Violation
                         (Printf.sprintf
                            "containment: members %d and %d have incomparable delivered prefixes" i j));
                  group_max := max !group_max b)
                order
            end)
          pos)
      pos;
    Ok ()
  with Violation msg -> Error msg

let scd ~ops ~seed ~trace =
  let clients = 4 in
  let r =
    Scd_harness.run ~n:8 ~clients ~ops ~regs:4 ~seed ~trace ?horizon_us:(boot_horizon ops) ()
  in
  let log = log_create (clients * ops) in
  List.iter
    (fun (op : Scd_harness.op) ->
      issued log ~at:op.start_us;
      match op.outcome with
      | Scd_harness.Failed -> op_failed log "SCD op exhausted its failover attempts"
      | Scd_harness.Wrote _ | Scd_harness.Snap _ | Scd_harness.Incred | Scd_harness.Counted _ ->
        completed log ~start:op.start_us ~stop:op.end_us)
    r.Scd_harness.history;
  if ops > 0 then begin
    let check name = function Ok () -> () | Error m -> error log (name ^ ": " ^ m) in
    let members = r.Scd_harness.members in
    check "SCD delivery"
      (scd_delivery
         ~broadcast_sns:(Array.map Soda_scd.Scd.broadcast_sns members)
         ~deliveries:(Array.map Soda_scd.Scd.deliveries members));
    if clients * ops <= 64 then check "SCD delivery (harness)" (Scd_harness.check_delivery r);
    check "SCD objects" (Scd_harness.check_objects r)
  end;
  finish log ~net:r.Scd_harness.net ~attempted:(clients * ops) ~layer:[]

(* ---- the workload table ---- *)

type t = {
  name : string;
  why : string;
  default_seed : int;
  run : scale:float -> seed:int -> trace:bool -> result;
      (** [scale] multiplies the op count: 1.0 is the benchmark, 0.01 the
          smoke run, 0.0 set-up only (build, attach, boot). *)
}

let all =
  [
    {
      name = "signal_stream";
      why =
        "header-only SIGNALs, 3 outstanding on 2 nodes: per-packet kernel and transport cost \
         dominate; the paper's T2 stream";
      default_seed = 271;
      run =
        (fun ~scale ~seed ~trace ->
          closed_loop ~mix:Signals ~ops:(ops_at ~scale 100_000) ~seed ~trace
            ~calls:(Calls.create trace));
    };
    {
      name = "bulk_putget";
      why =
        "PUTs and GETs in turn, 900 to 1100 words each, on 2 nodes: per-word copy, CRC and \
         line time dominate, writes beside reads";
      default_seed = 271;
      run =
        (fun ~scale ~seed ~trace ->
          closed_loop ~mix:Put_get ~ops:(ops_at ~scale 20_000) ~seed ~trace
            ~calls:(Calls.create trace));
    };
    {
      name = "incast32";
      why =
        "32 clients x 512 SIGNALs, 8 outstanding each, onto one server at W=64 with AIMD: \
         many-to-one overload where congestion control and BUSY handling work";
      default_seed = 73;
      run =
        (fun ~scale ~seed ~trace ->
          incast ~clients:32 ~per_client:(ops_at ~scale 512) ~seed ~trace
            ~calls:(Calls.create trace));
    };
    {
      name = "zipf_open";
      why =
        "open-loop Zipf arrivals with scatter-gather on 256 nodes and a 1 Gbps bus: engine, heap \
         and fan-out at scale, no medium queueing";
      default_seed = 97;
      run =
        (fun ~scale ~seed ~trace ->
          fst
            (open_loop
               (zipf_config ~requests:(ops_at ~scale 65_536) ~seed)
               ~trace ~calls:(Calls.create trace)));
    };
    {
      name = "store_quorum";
      why =
        "quorum reads and writes on 5 replicas with 2% loss and a replica crash and reboot: \
         retransmission and failover backoff";
      default_seed = 77;
      run = (fun ~scale ~seed ~trace -> store ~ops:(ops_at ~scale 1000) ~seed ~trace);
    };
    {
      name = "scd_snapshot";
      why =
        "snapshot and counter ops over SCD broadcast on 8 members: the pump and n(n-1) FORWARD \
         echo that no other workload runs";
      default_seed = 88;
      run = (fun ~scale ~seed ~trace -> scd ~ops:(ops_at ~scale 250) ~seed ~trace);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
