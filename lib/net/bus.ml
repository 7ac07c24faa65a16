module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Metrics = Soda_obs.Metrics
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
  (* frames on the wire, due at their arrival *)
  arrivals : (Frame.t, unit) Delay_line.t;
  fault_rng : Rng.t;
  stats : Metrics.t;
  (* Backing cells of the per-frame stats, fetched once: a frame costs
     five accounting updates, and the string-keyed lookups were measurable
     at thousands of frames per simulated second. *)
  c_frames_sent : int ref;
  c_bytes_sent : int ref;
  c_frames_delivered : int ref;
  t_medium_busy : int ref;
  h_frame_bytes : Metrics.histogram;
  h_queueing_us : Metrics.histogram;
  (* the fault counters: slots, so a run without faults exports none *)
  frames_partitioned : Metrics.counter_slot;
  frames_lost : Metrics.counter_slot;
  frames_corrupted : Metrics.counter_slot;
  frames_duplicated : Metrics.counter_slot;
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

let no_frame = { Frame.src = -1; dst = Frame.Broadcast; wire = Bytes.empty; len = 0; ctx = None }

let create ?(config = default_config) ?obs engine =
  let stats = Metrics.create () in
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
    c_frames_sent = Metrics.counter_cell stats "bus.frames_sent";
    c_bytes_sent = Metrics.counter_cell stats "bus.bytes_sent";
    c_frames_delivered = Metrics.counter_cell stats "bus.frames_delivered";
    t_medium_busy = Metrics.counter_cell stats "bus.medium_busy";
    h_frame_bytes = Metrics.histogram_cell stats "bus.frame_bytes";
    h_queueing_us = Metrics.histogram_cell stats "bus.queueing_us";
    frames_partitioned = Metrics.counter_slot stats "bus.frames_partitioned";
    frames_lost = Metrics.counter_slot stats "bus.frames_lost";
    frames_corrupted = Metrics.counter_slot stats "bus.frames_corrupted";
    frames_duplicated = Metrics.counter_slot stats "bus.frames_duplicated";
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

(* Flip one byte of the frame's [len]. A unicast frame is its receiver's,
   so it is damaged in place; a broadcast frame is shared by every
   station, so each damaged delivery gets its own copy. *)
let corrupt t (frame : Frame.t) =
  let wire =
    match frame.dst with Frame.To _ -> frame.wire | Broadcast -> Bytes.sub frame.wire 0 frame.len
  in
  let idx = Rng.int t.fault_rng frame.len in
  let byte = Char.code (Bytes.get wire idx) in
  Bytes.set wire idx (Char.chr (byte lxor (1 + Rng.int t.fault_rng 255)));
  if wire == frame.wire then frame else { frame with wire }

(* Whether [rx] got the frame. *)
let deliver_to t frame mid rx =
  mid <> frame.Frame.src && Frame.dst_matches frame.Frame.dst ~mid
  &&
  (* Partition mask is evaluated at delivery time, so a frame already on
     the wire when the cut appears is eaten too — that is exactly the
     "ack eaten by a partition" adversary the chaos suite scripts. *)
  if separated t frame.Frame.src mid then begin
    Metrics.bump t.frames_partitioned;
    if tracing t then
      emit_event t
        (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_partitioned });
    false
  end
  else if Rng.chance t.fault_rng t.config.loss_rate then begin
    Metrics.bump t.frames_lost;
    if tracing t then
      emit_event t (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_lost });
    false
  end
  else begin
    let frame =
      if Rng.chance t.fault_rng t.config.corruption_rate then begin
        Metrics.bump t.frames_corrupted;
        if tracing t then
          emit_event t
            (Event.Bus_drop { src = frame.Frame.src; dst = mid; reason = Drop_corrupted });
        corrupt t frame
      end
      else frame
    in
    incr t.c_frames_delivered;
    rx frame;
    true
  end

(* A delivered unicast frame is its receiver's from then on; the bus
   releases one nobody got, and a broadcast frame after the sweep (its
   receivers keep no view of it). *)
let deliver t frame =
  match frame.Frame.dst with
  | Frame.To mid ->
    (* Unicast touches exactly one station; skip the broadcast sweep. The
       fault RNG stream is unchanged versus the seed's all-stations scan:
       non-matching stations never drew from it. *)
    let got =
      match Hashtbl.find t.stations mid with
      | rx -> deliver_to t frame mid rx
      | exception Not_found -> false
    in
    if not got then Pool.release t.pool frame.Frame.wire
  | Frame.Broadcast ->
    (* Deterministic delivery order: ascending mid. The arrays are a
       snapshot — a station attached or detached by an rx callback during
       this sweep takes effect from the next delivery, same as the seed's
       fold-into-list behaviour. *)
    if t.order_dirty then rebuild_order t;
    let mids = t.order_mids and rxs = t.order_rx in
    for i = 0 to t.order_n - 1 do
      ignore (deliver_to t frame mids.(i) rxs.(i))
    done;
    Pool.release t.pool frame.Frame.wire

let arrived t =
  let l = t.arrivals in
  let frame = Delay_line.head_a l in
  Delay_line.next l Delay_line.always;
  deliver t frame

(* Core transmission path: the frame's buffer is the bus's from here. *)
let transmit t (frame : Frame.t) =
  if frame.len < 2 || frame.len > Bytes.length frame.wire then
    invalid_arg "Bus.transmit: frame shorter than its CRC trailer or longer than its buffer";
  let src = frame.src and dst = frame.dst in
  let payload_bytes = frame.len - 2 in
  let now = Engine.now t.engine in
  let start = max now t.busy_until in
  let tx = transmission_time_us t ~payload_bytes in
  t.busy_until <- start + tx;
  incr t.c_frames_sent;
  t.c_bytes_sent := !(t.c_bytes_sent) + payload_bytes;
  t.t_medium_busy := !(t.t_medium_busy) + tx;
  Metrics.Histogram.observe t.h_frame_bytes payload_bytes;
  Metrics.Histogram.observe t.h_queueing_us (start - now);
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
  ignore (Delay_line.push_after t.arrivals ~delay:arrival ~fire:arrived t ~n:0 frame ());
  if t.duplicate_pending > 0 then begin
    t.duplicate_pending <- t.duplicate_pending - 1;
    Metrics.bump t.frames_duplicated;
    (* The copy trails the original by one transmission time plus a small
       random slack: late enough to look like a stale retransmission. It
       has bytes of its own, so no buffer is delivered twice. *)
    let slack = 1 + Rng.int t.fault_rng (max 1 t.config.propagation_us * 4) in
    let wire = Pool.acquire t.pool frame.len in
    Bytes.blit frame.wire 0 wire 0 frame.len;
    ignore
      (Delay_line.push_after t.arrivals ~delay:(arrival + tx + slack) ~fire:arrived t ~n:0
         { frame with wire } ())
  end

let send t ?ctx ~src ~dst payload =
  let len = Bytes.length payload in
  let wire = Pool.acquire t.pool (len + 2) in
  Bytes.blit payload 0 wire 0 len;
  Crc16.seal wire ~len;
  transmit t { Frame.src; dst; wire; len = len + 2; ctx }
