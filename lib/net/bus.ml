module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Stats = Soda_sim.Stats
module Delay_line = Soda_sim.Delay_line
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event

type config = {
  bandwidth_bps : int;
  propagation_us : int;
  frame_overhead_bytes : int;
  loss_rate : float;
  corruption_rate : float;
}

let default_config =
  {
    bandwidth_bps = 1_000_000;
    propagation_us = 5;
    frame_overhead_bytes = 8;
    loss_rate = 0.0;
    corruption_rate = 0.0;
  }

type t = {
  engine : Engine.t;
  mutable config : config;
  stations : (int, Frame.t -> unit) Hashtbl.t;
  (* Broadcast delivery order, cached as parallel arrays sorted by ascending
     mid and rebuilt lazily after attach/detach. The seed rebuilt (fold +
     sort) this list on EVERY delivery, which at thousands of stations
     dominated the whole simulation's allocation. *)
  mutable order_mids : int array;
  mutable order_rx : (Frame.t -> unit) array;
  mutable order_n : int;
  mutable order_dirty : bool;
  mutable busy_until : int;
  (* frames on the wire, due at their arrival; [n] = 1 when the frame's
     pooled buffer is released after this delivery *)
  arrivals : (Frame.t, unit) Delay_line.t;
  fault_rng : Rng.t;
  stats : Stats.t;
  (* Backing cells of the per-frame stats, fetched once: a frame costs
     five accounting updates, and the string-keyed lookups were measurable
     at thousands of frames per simulated second. *)
  c_frames_sent : int ref;
  c_bytes_sent : int ref;
  c_frames_delivered : int ref;
  t_medium_busy : int ref;
  h_frame_bytes : Soda_obs.Metrics.histogram;
  h_queueing_us : Soda_obs.Metrics.histogram;
  pool : Pool.t;
  obs : Recorder.t option;
  (* fault-plan state *)
  mutable partition : (int list * int list) option;
  (* mid -> 1 (group_a) | 2 (group_b); mirrors [partition] so the
     per-delivery cut check is two hashtable probes instead of four
     List.mem scans. *)
  part_group : (int, int) Hashtbl.t;
  mutable duplicate_pending : int;
  mutable jitter : (int * int) option;  (* (min_us, max_us) extra delivery delay *)
  mutable seq_window : int option;  (* transport window claimed by the stations *)
}

let no_frame = { Frame.src = -1; dst = Frame.Broadcast; wire = Bytes.empty; ctx = None }

let create ?(config = default_config) ?obs engine =
  let stats = Stats.create () in
  {
    engine;
    config;
    stations = Hashtbl.create 16;
    order_mids = [||];
    order_rx = [||];
    order_n = 0;
    order_dirty = false;
    busy_until = 0;
    arrivals = Delay_line.create ~tag:"bus" engine ~delay:0 ~fill_a:no_frame ~fill_b:();
    fault_rng = Rng.split (Engine.rng engine);
    stats;
    c_frames_sent = Stats.counter_cell stats "bus.frames_sent";
    c_bytes_sent = Stats.counter_cell stats "bus.bytes_sent";
    c_frames_delivered = Stats.counter_cell stats "bus.frames_delivered";
    t_medium_busy = Stats.time_ref stats "bus.medium_busy";
    h_frame_bytes = Stats.histogram_cell stats "bus.frame_bytes";
    h_queueing_us = Stats.histogram_cell stats "bus.queueing_us";
    pool = Pool.create ();
    obs;
    partition = None;
    part_group = Hashtbl.create 16;
    duplicate_pending = 0;
    jitter = None;
    seq_window = None;
  }

let engine t = t.engine
let stats t = t.stats
let config t = t.config
let pool t = t.pool

(* Seq-space width implied by a station's transport window; mirrors
   Cost_model.seq_space's tiers (1-bit / 4-bit / 8-bit encodings). *)
let seq_space_of_window w = if w <= 1 then 2 else if w <= 8 then 16 else 256

let claim_seq_window t ~window =
  match t.seq_window with
  | None -> t.seq_window <- Some window
  | Some w when w = window -> ()
  | Some w ->
    invalid_arg
      (Printf.sprintf
         "Bus.claim_seq_window: stations disagree on the transport window: the \
          first station claimed window %d (seq space %d), the new station wants \
          window %d (seq space %d). A receiver classifies packets against its \
          own window, so every station on one medium must use the same width"
         w (seq_space_of_window w) window
         (seq_space_of_window window))

(* Hot call sites test [tracing] BEFORE building the event payload: the
   [Event.t] constructor argument is an allocation, and it was paid on
   every frame even with tracing off. *)
let tracing t =
  match t.obs with Some r -> Recorder.tracing r | None -> false

let emit_event t kind =
  match t.obs with
  | Some r when Recorder.tracing r ->
    Recorder.emit r ~time_us:(Engine.now t.engine) ~mid:(-1) kind
  | Some _ | None -> ()

let check_rate name rate =
  (* Written so that NaN also fails the test. *)
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg (Printf.sprintf "Bus.%s: rate %g outside [0, 1]" name rate)

let set_loss_rate t rate =
  check_rate "set_loss_rate" rate;
  t.config <- { t.config with loss_rate = rate }

let set_corruption_rate t rate =
  check_rate "set_corruption_rate" rate;
  t.config <- { t.config with corruption_rate = rate }

(* ---- fault-plan hooks --------------------------------------------------- *)

let set_partition t (group_a, group_b) =
  List.iter
    (fun m ->
      if List.mem m group_b then
        invalid_arg (Printf.sprintf "Bus.set_partition: mid %d in both groups" m))
    group_a;
  t.partition <- Some (group_a, group_b);
  Hashtbl.reset t.part_group;
  List.iter (fun m -> Hashtbl.replace t.part_group m 1) group_a;
  List.iter (fun m -> Hashtbl.replace t.part_group m 2) group_b;
  emit_event t (Event.Fault_partition { group_a; group_b })

let heal t =
  if t.partition <> None then begin
    t.partition <- None;
    Hashtbl.reset t.part_group;
    emit_event t Event.Fault_heal
  end

let partitioned t = t.partition <> None

(* A frame crosses the cut iff its endpoints sit in opposite groups; mids
   in neither group see no filtering (they talk to everyone). *)
let separated t a b =
  match t.partition with
  | None -> false
  | Some _ ->
    let ga = match Hashtbl.find t.part_group a with g -> g | exception Not_found -> 0 in
    let gb = match Hashtbl.find t.part_group b with g -> g | exception Not_found -> 0 in
    ga <> 0 && gb <> 0 && ga <> gb

let duplicate_next ?(count = 1) t =
  if count < 0 then invalid_arg "Bus.duplicate_next: negative count";
  t.duplicate_pending <- t.duplicate_pending + count;
  emit_event t (Event.Fault_duplicate { count })

let set_delay_jitter t ~min_us ~max_us =
  if min_us < 0 || max_us < min_us then
    invalid_arg
      (Printf.sprintf "Bus.set_delay_jitter: invalid range %d..%d" min_us max_us);
  t.jitter <- (if max_us = 0 then None else Some (min_us, max_us));
  emit_event t (Event.Fault_jitter { min_us; max_us })

let transmission_time_us t ~payload_bytes =
  let bytes = payload_bytes + t.config.frame_overhead_bytes + 2 (* CRC trailer *) in
  (* bits * 1e6 / bps, rounded up to a whole microsecond. *)
  let bits = bytes * 8 in
  (bits * 1_000_000 + t.config.bandwidth_bps - 1) / t.config.bandwidth_bps

let backlog_us t = max 0 (t.busy_until - Engine.now t.engine)

let attach t ~mid ~rx =
  if Hashtbl.mem t.stations mid then
    invalid_arg (Printf.sprintf "Bus.attach: mid %d already attached" mid);
  Hashtbl.replace t.stations mid rx;
  t.order_dirty <- true

let detach t ~mid =
  Hashtbl.remove t.stations mid;
  t.order_dirty <- true

let rebuild_order t =
  let n = Hashtbl.length t.stations in
  let mids = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter (fun mid _ -> mids.(!i) <- mid; incr i) t.stations;
  Array.sort compare mids;
  let rx = Array.map (fun mid -> Hashtbl.find t.stations mid) mids in
  t.order_mids <- mids;
  t.order_rx <- rx;
  t.order_n <- n;
  t.order_dirty <- false

let corrupt t wire =
  let copy = Bytes.copy wire in
  let idx = Rng.int t.fault_rng (Bytes.length copy) in
  let byte = Char.code (Bytes.get copy idx) in
  Bytes.set copy idx (Char.chr (byte lxor (1 + Rng.int t.fault_rng 255)));
  copy

let deliver_to t frame mid rx =
  if mid <> frame.Frame.src && Frame.dst_matches frame.Frame.dst ~mid then begin
    (* Partition mask is evaluated at delivery time, so a frame already on
       the wire when the cut appears is eaten too — that is exactly the
       "ack eaten by a partition" adversary the chaos suite scripts. *)
    if separated t frame.Frame.src mid then begin
      Stats.incr t.stats "bus.frames_partitioned";
      if tracing t then
        emit_event t
          (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_partitioned })
    end
    else if Rng.chance t.fault_rng t.config.loss_rate then begin
      Stats.incr t.stats "bus.frames_lost";
      if tracing t then
        emit_event t (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_lost })
    end
    else begin
      let frame =
        if Rng.chance t.fault_rng t.config.corruption_rate then begin
          Stats.incr t.stats "bus.frames_corrupted";
          if tracing t then
            emit_event t
              (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_corrupted });
          { frame with Frame.wire = corrupt t frame.Frame.wire }
        end
        else frame
      in
      incr t.c_frames_delivered;
      rx frame
    end
  end

let deliver t frame =
  match frame.Frame.dst with
  | Frame.To mid -> begin
    (* Unicast touches exactly one station; skip the broadcast sweep. The
       fault RNG stream is unchanged versus the seed's all-stations scan:
       non-matching stations never drew from it. *)
    match Hashtbl.find t.stations mid with
    | rx -> deliver_to t frame mid rx
    | exception Not_found -> ()
  end
  | Frame.Broadcast ->
    (* Deterministic delivery order: ascending mid. The arrays are a
       snapshot — a station attached or detached by an rx callback during
       this sweep takes effect from the next delivery, same as the seed's
       fold-into-list behaviour. *)
    if t.order_dirty then rebuild_order t;
    let mids = t.order_mids and rxs = t.order_rx in
    for i = 0 to t.order_n - 1 do
      deliver_to t frame mids.(i) rxs.(i)
    done

let arrived t =
  let l = t.arrivals in
  let frame = Delay_line.head_a l and release = Delay_line.head_n l = 1 in
  Delay_line.next l Delay_line.always;
  deliver t frame;
  if release then Pool.release t.pool frame.Frame.wire

(* Core transmission path. [release] marks pool-owned wire buffers: the bus
   frees them after the frame's LAST delivery event (the duplicated copy
   strictly trails the original, so releasing with the final event is safe). *)
let send_frame t ?ctx ~src ~dst ~release wire =
  let payload_bytes = Bytes.length wire - 2 in
  let frame = { Frame.src; dst; wire; ctx } in
  let now = Engine.now t.engine in
  let start = max now t.busy_until in
  let tx = transmission_time_us t ~payload_bytes in
  t.busy_until <- start + tx;
  incr t.c_frames_sent;
  t.c_bytes_sent := !(t.c_bytes_sent) + payload_bytes;
  t.t_medium_busy := !(t.t_medium_busy) + tx;
  Soda_obs.Metrics.Histogram.observe t.h_frame_bytes payload_bytes;
  Soda_obs.Metrics.Histogram.observe t.h_queueing_us (start - now);
  if tracing t then
    emit_event t
      (Event.Bus_frame
         {
           src;
           dst = (match dst with Frame.To d -> d | Frame.Broadcast -> Event.broadcast_peer);
           bytes = payload_bytes;
           start_us = start;
           end_us = start + tx;
         });
  (* Per-frame jitter is drawn at send time from the fault RNG, so runs stay
     a pure function of the seed. Jittered frames may arrive out of order,
     which is what exercises the alternating-bit sequence logic. *)
  let jitter_us =
    match t.jitter with
    | None -> 0
    | Some (min_us, max_us) -> min_us + Rng.int t.fault_rng (max_us - min_us + 1)
  in
  let arrival = start + tx + t.config.propagation_us + jitter_us - now in
  let dup = t.duplicate_pending > 0 in
  let release_now = release && not dup in
  ignore
    (Delay_line.push_after t.arrivals ~delay:arrival ~fire:arrived t
       ~n:(Bool.to_int release_now) frame ());
  if dup then begin
    t.duplicate_pending <- t.duplicate_pending - 1;
    Stats.incr t.stats "bus.frames_duplicated";
    (* The copy trails the original by one transmission time plus a small
       random slack: late enough to look like a stale retransmission. *)
    let slack = 1 + Rng.int t.fault_rng (max 1 t.config.propagation_us * 4) in
    ignore
      (Delay_line.push_after t.arrivals ~delay:(arrival + tx + slack) ~fire:arrived t
         ~n:(Bool.to_int release) frame ())
  end

let send t ?ctx ~src ~dst payload =
  send_frame t ?ctx ~src ~dst ~release:false (Crc16.append payload)

let send_wire t ?ctx ~src ~dst wire =
  if Bytes.length wire < 2 then
    invalid_arg "Bus.send_wire: frame shorter than its CRC trailer";
  send_frame t ?ctx ~src ~dst ~release:true wire
