(* Per-layer metrics of one traced run, read from outside the layers:
   public counters and statistics, spans derived from the recorded events,
   and wall-clock timing of the bench's own calls (see Loads.Calls) and of
   the wire codec. Layers are named after the lib/ directories. Nothing
   here schedules engine work, so a traced run keeps its virtual time. *)

module Cost = Soda_base.Cost_model
module Pattern = Soda_base.Pattern
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats
module Bus = Soda_net.Bus
module Pool = Soda_net.Pool
module Crc16 = Soda_net.Crc16
module Wire = Soda_proto.Wire
module Metrics = Soda_obs.Metrics
module Recorder = Soda_obs.Recorder
module Span = Soda_obs.Span
module Event = Soda_obs.Event

let category_metric = function
  | Cost.Conn_timer -> "kernel.conn_timer_ms_per_op"
  | Cost.Retrans_timer -> "kernel.retrans_timer_ms_per_op"
  | Cost.Context_switch -> "kernel.context_switch_ms_per_op"
  | Cost.Transmission -> "kernel.transmission_ms_per_op"
  | Cost.Client_overhead -> "kernel.client_overhead_ms_per_op"
  | Cost.Protocol -> "kernel.protocol_ms_per_op"

let phase_metric = function
  | Span.Queued -> "obs.span.queued_ms_per_op"
  | Span.On_wire -> "obs.span.on_wire_ms_per_op"
  | Span.Busy_backoff -> "obs.span.busy_backoff_ms_per_op"
  | Span.Awaiting_accept -> "obs.span.awaiting_accept_ms_per_op"
  | Span.Accept_transfer -> "obs.span.accept_transfer_ms_per_op"

(* Span.of_events keys open spans by tid, and tids are only unique per
   requester, so derive each requester's spans from its own events. *)
let span_breakdown events =
  let by_mid = Hashtbl.create 64 in
  List.iter
    (fun (ev : Event.t) ->
      match ev.kind with
      | Event.Trap _ | Event.Tx _ | Event.Rx _ | Event.Acked _ | Event.Complete _ ->
        let prev = try Hashtbl.find by_mid ev.mid with Not_found -> [] in
        Hashtbl.replace by_mid ev.mid (ev :: prev)
      | _ -> ())
    events;
  let totals = List.map (fun p -> (p, ref 0)) Span.all_phases in
  Hashtbl.iter
    (fun _ rev_events ->
      List.iter
        (fun (phase, us) -> let r = List.assoc phase totals in r := !r + us)
        (Span.breakdown (Span.of_events (List.rev rev_events))))
    by_mid;
  List.map (fun (p, r) -> (p, !r)) totals

(* Wire codec cost per packet, over packets whose encoded sizes follow the
   run's bus.frame_bytes distribution (its deciles). Encode is
   [Wire.encode_into] + [Crc16.seal] into a reused buffer; decode is
   [Crc16.payload_len] + [Wire.decode_sub], as on the receive path. *)
let codec_ns sizes =
  let ack = { Wire.src = 1; reliable = false; seq = 0; ack = Some 0; run = false; body = Wire.Ack } in
  let request data =
    {
      ack with
      Wire.reliable = true;
      ack = None;
      body =
        Wire.Request
          { tid = 7; pattern = Pattern.well_known 0o640; arg = 0; put_size = Bytes.length data;
            get_size = 0; data; retry = false };
    }
  in
  let base = Wire.encoded_size (request Bytes.empty) in
  let packets =
    List.map
      (fun size ->
        let pkt =
          if size < base then ack else request (Bytes.make (size - base) 'd')
        in
        let len = Wire.encoded_size pkt in
        let buf = Bytes.create (len + 2) in
        ignore (Wire.encode_into pkt buf ~off:0);
        Crc16.seal buf ~len;
        (pkt, buf, len))
      sizes
  in
  let rounds = 20_000 / max 1 (List.length packets) in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      List.iter f packets
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (rounds * List.length packets)
  in
  let encode_ns =
    time (fun (pkt, buf, len) ->
        ignore (Wire.encode_into pkt buf ~off:0);
        Crc16.seal buf ~len)
  in
  let decode_ns =
    time (fun (_, buf, _) ->
        let len = Crc16.payload_len buf in
        ignore (Sys.opaque_identity (Wire.decode_sub buf ~off:0 ~len)))
  in
  (encode_ns, decode_ns)

let frame_size_deciles bus =
  match Stats.histogram (Bus.stats bus) "bus.frame_bytes" with
  | None -> [ 0 ]
  | Some h -> List.init 10 (fun i -> Metrics.Histogram.percentile h (float_of_int (10 * i) +. 5.0))

(* Metrics that only need counters (virtual-time facts of the run). *)
let of_run (r : Loads.result) =
  let ops = float_of_int (max 1 (Array.length r.Loads.latencies_us)) in
  let per_op x = float_of_int x /. ops in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let engine = Network.engine r.Loads.net in
  let counters = Engine.counters engine in
  let tags = Engine.tag_counts engine in
  let bus = Network.bus r.Loads.net in
  let bus_stats = Bus.stats bus in
  let kernels = List.map snd (Network.nodes r.Loads.net) in
  let ksum f = List.fold_left (fun acc k -> acc + f (Kernel.stats k)) 0 kernels in
  let kcount name = ksum (fun s -> Stats.counter s name) in
  let metrics = Recorder.metrics (Network.recorder r.Loads.net) in
  let mcount name = Metrics.counter metrics name in
  let queueing p =
    match Stats.histogram bus_stats "bus.queueing_us" with
    | Some h -> float_of_int (Metrics.Histogram.percentile h p)
    | None -> 0.0
  in
  let pool = Bus.pool bus in
  let window = max 1 (r.Loads.last_done_us - r.Loads.first_issue_us) in
  [
    ("sim.events_per_op", per_op counters.Engine.fired);
    ("sim.cancelled_per_op", per_op counters.Engine.cancelled);
    ("sim.heap_highwater", float_of_int (Engine.heap_highwater engine));
  ]
  @ List.map
      (fun tag ->
        ("sim.callbacks_per_op." ^ tag, per_op (try List.assoc tag tags with Not_found -> 0)))
      [ "proto"; "bus"; "kernel"; "client" ]
  @ [
      ("net.bus.utilization", ratio (Stats.time_us bus_stats "bus.medium_busy") window);
      ("net.bus.queueing_p50_us", queueing 50.0);
      ("net.bus.queueing_p99_us", queueing 99.0);
      ("net.bus.bytes_per_op", per_op (Stats.counter bus_stats "bus.bytes_sent"));
      ( "net.bus.dropped_per_op",
        per_op (Stats.counter bus_stats "bus.frames_lost" + kcount "nic.crc_drops") );
      ("net.pool.reuse_ratio", ratio (Pool.reuses pool) (Pool.acquires pool));
      ("proto.pkts_per_op", per_op (kcount "pkt.sent.total"));
      ("proto.retx_timer_ratio", ratio (kcount "pkt.retransmissions.timer") (kcount "pkt.sent.total"));
      ("proto.busy_nacks_per_op", per_op (kcount "req.busy_nacked"));
      ("proto.standalone_acks_per_op", per_op (kcount "pkt.standalone_acks"));
      ("proto.duplicates_per_op", per_op (kcount "pkt.duplicates"));
    ]
  @ List.map
      (fun c -> (category_metric c, per_op (ksum (fun s -> Stats.time_us s (Cost.label c))) /. 1000.0))
      Cost.all_categories
  @ [
      ("store.rounds_per_op", per_op (mcount "store.rounds"));
      ("store.retries_per_op", per_op (mcount "store.retries"));
      ("scd.forwards_per_op", per_op (mcount "scd.forwards"));
      ("scd.broadcasts_per_op", per_op (mcount "scd.broadcasts"));
      ("scd.retry_frames_per_op", per_op (mcount "scd.retry_frames"));
      ( "scd.set_size_mean",
        match Metrics.histogram metrics "scd.set_size" with
        | Some h -> Metrics.Histogram.mean h
        | None -> 0.0 );
      ("scd.recollects_per_op", per_op (mcount "scd.recollects"));
      ("scd.failovers", float_of_int (mcount "scd.failovers"));
    ]
  @ r.Loads.layer

(* Metrics that need the recorded events of a traced run. *)
let of_events (r : Loads.result) =
  let ops = float_of_int (max 1 (Array.length r.Loads.latencies_us)) in
  let recorder = Network.recorder r.Loads.net in
  ("obs.events_per_op", float_of_int (Recorder.length recorder) /. ops)
  :: List.map
       (fun (phase, us) -> (phase_metric phase, float_of_int us /. ops /. 1000.0))
       (span_breakdown (Recorder.events recorder))
