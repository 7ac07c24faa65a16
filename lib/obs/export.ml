(* Exporters for the recorded event stream.

   - [pp_timeline]: the human-readable "%8d us  mid  message" rendering;
   - JSONL: one JSON object per event, for machine diffing (golden tests)
     and ad-hoc jq analysis;
   - Chrome trace_event JSON: loads in about://tracing or Perfetto with
     one process lane per node (requests track + packets track) and a
     separate lane for bus medium occupancy. *)

let pp_timeline ppf events =
  List.iter
    (fun e ->
      Format.fprintf ppf "%8d us  %-4s %s@." e.Event.time_us
        (if e.Event.mid < 0 then "-" else string_of_int e.Event.mid)
        (Event.message e.Event.kind))
    events

(* ---- JSONL -------------------------------------------------------------- *)

let event_fields (e : Event.t) : (string * Json.t) list =
  let open Event in
  let int k v = (k, Json.Int v) and str k v = (k, Json.Str v) and flag k v = (k, Json.Bool v) in
  let base = [ int "t" e.time_us; int "mid" e.mid; str "ev" (kind_label e.kind) ] in
  (* Window-1 traffic only uses sequence numbers 0/1, which are rendered as
     the booleans the alternating-bit seed emitted so the golden JSONL
     trace stays byte-identical; wider windows render the number. *)
  let seq v = if v < 2 then flag "seq" (v = 1) else int "seq" v in
  let pkt p = str "pkt" (pkt_name p) in
  let extra =
    match e.kind with
    | Trap { tid; dst; pattern; put_size; get_size } ->
      [ int "tid" tid; int "dst" dst; int "pattern" pattern; int "put" put_size;
        int "get" get_size ]
    | Enqueue { tid; peer; pkt = p } -> [ int "tid" tid; int "peer" peer; pkt p ]
    | Tx { tid; peer; pkt = p; bytes; seq = n; retry } ->
      [ int "tid" tid; int "peer" peer; pkt p; int "bytes" bytes; seq n; flag "retry" retry ]
    | Rx { tid; peer; pkt = p; bytes; seq = n } ->
      [ int "tid" tid; int "peer" peer; pkt p; int "bytes" bytes; seq n ]
    | Acked { tid; peer; pkt = p } -> [ int "tid" tid; int "peer" peer; pkt p ]
    | Busy_nack { tid; peer } -> [ int "tid" tid; int "peer" peer ]
    | Retransmit { tid; peer; pkt = p; attempt } ->
      [ int "tid" tid; int "peer" peer; pkt p; int "attempt" attempt ]
    | Window_advance { peer; base; in_flight } ->
      [ int "peer" peer; int "base" base; int "in_flight" in_flight ]
    | Window_buffer { tid; peer; seq = n; expected } ->
      [ int "tid" tid; int "peer" peer; int "seq" n; int "expected" expected ]
    | Cwnd_change { peer; cwnd; in_flight; reason } ->
      [ int "peer" peer; int "cwnd" cwnd; int "in_flight" in_flight;
        str "reason" (cwnd_reason_name reason) ]
    | Rtt_sample { peer; sample_us; srtt_us; rttvar_us } ->
      [ int "peer" peer; int "sample" sample_us; int "srtt" srtt_us; int "rttvar" rttvar_us ]
    | Probe { tid; peer; misses } -> [ int "tid" tid; int "peer" peer; int "misses" misses ]
    | Deliver { tid; src; pattern; put_size; get_size; from_buffer } ->
      [ int "tid" tid; int "src" src; int "pattern" pattern; int "put" put_size;
        int "get" get_size; flag "buffered" from_buffer ]
    | Handler_invoke | Endhandler | Fault_heal -> []
    | Complete { tid; status } -> [ int "tid" tid; str "status" (status_name status) ]
    | Bus_frame { src; dst; bytes; start_us; end_us } ->
      [ int "src" src; int "dst" dst; int "bytes" bytes; int "start" start_us;
        int "end" end_us ]
    | Bus_drop { src; dst; reason } ->
      [ int "src" src; int "dst" dst; str "reason" (bus_drop_reason_name reason) ]
    | Fault_partition { group_a; group_b } ->
      [ str "a" (mids_string group_a); str "b" (mids_string group_b) ]
    | Fault_crash { mid } | Fault_reboot { mid } -> [ int "node" mid ]
    | Fault_duplicate { count } -> [ int "count" count ]
    | Fault_jitter { min_us; max_us } -> [ int "min" min_us; int "max" max_us ]
    | Fault_loss_burst { rate_pct; duration_us } ->
      [ int "rate_pct" rate_pct; int "duration" duration_us ]
    | Store_phase { op; phase; key; acks; quorum; elapsed_us } ->
      [ str "op" (store_op_name op); str "phase" (store_phase_name phase); int "key" key;
        int "acks" acks; int "quorum" quorum; int "elapsed" elapsed_us ]
    | Store_retry { op; phase; key; attempt } ->
      [ str "op" (store_op_name op); str "phase" (store_phase_name phase); int "key" key;
        int "attempt" attempt ]
    | Store_complete { op; key; ok; rounds; elapsed_us } ->
      [ str "op" (store_op_name op); int "key" key; flag "ok" ok; int "rounds" rounds;
        int "elapsed" elapsed_us ]
    | Scd_broadcast { sd; sn; payload } -> [ int "sd" sd; int "sn" sn; str "payload" payload ]
    | Scd_deliver { size; pending } -> [ int "size" size; int "pending" pending ]
    | Scd_op { op; origin; oseq; ok; elapsed_us } ->
      [ str "op" (scd_op_name op); int "origin" origin; int "oseq" oseq; flag "ok" ok;
        int "elapsed" elapsed_us ]
    | Mark { peer; tid; mark; n } ->
      [ int "peer" peer; int "tid" tid; str "mark" (mark_name mark); int "n" n ]
  in
  (* Causal identity trails the event's own fields; absent when the
     recorder minted no contexts, so pre-causal traces (and the golden
     pingpong trace) are byte-identical. *)
  let causal =
    match e.ctx with
    | None -> []
    | Some c ->
      int "tr" c.Causal.trace :: int "sp" c.Causal.span
      :: (if c.Causal.parent = Causal.no_parent then [] else [ int "pa" c.Causal.parent ])
  in
  base @ extra @ causal

let jsonl events =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer b (Json.Obj (event_fields e));
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let output_jsonl oc events = output_string oc (jsonl events)

(* ---- Metrics registry JSON ---------------------------------------------- *)

(* Machine-readable dump of one registry: counters and gauges verbatim,
   histograms as their summary statistics (the log-scale buckets are an
   implementation detail; percentiles carry the documented ≤ ~3% error). *)
let metrics_value m =
  let open Json in
  let ints names value = Obj (List.map (fun name -> (name, Int (value name))) names) in
  let histogram h =
    let module H = Metrics.Histogram in
    let p q = Int (H.percentile h q) in
    Obj
      [ ("count", Int (H.count h)); ("sum", Int (H.sum h)); ("min", Int (H.min_value h));
        ("max", Int (H.max_value h)); ("mean", Float (H.mean h)); ("p50", p 50.0);
        ("p90", p 90.0); ("p95", p 95.0); ("p99", p 99.0) ]
  in
  Obj
    [ ("counters", ints (Metrics.counter_names m) (Metrics.counter m));
      ("gauges", ints (Metrics.gauge_names m) (Metrics.gauge m));
      ( "histograms",
        Obj
          (List.filter_map
             (fun name ->
               Option.map (fun h -> (name, histogram h)) (Metrics.histogram m name))
             (Metrics.histogram_names m)) ) ]

let metrics_json m = Json.to_string (metrics_value m)

(* [sections] pairs a name with a registry; the result is one top-level
   object, e.g. {"engine":{...},"bus":{...},"node.0":{...}}, one member
   per line. *)
let metrics_sections_json sections =
  let b = Buffer.create 4096 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Json.to_buffer b (Json.Str name);
      Buffer.add_char b ':';
      Json.to_buffer b (metrics_value m))
    sections;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* ---- Chrome trace_event ------------------------------------------------- *)

(* Track ids within each node's process lane. *)
let track_requests = 0
let track_packets = 1
let track_client = 2

(* The shared medium gets its own process lane. *)
let bus_pid = 1_000

let chrome_to_buffer b events =
  let open Json in
  let spans = Span.of_events events in
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_string b ",\n ";
    Json.to_buffer b (Json.Obj fields)
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n ";
  (* Process / thread name metadata: one lane per node. *)
  let emit_meta ~pid ~tid name =
    emit
      [ ("name", Str (if tid < 0 then "process_name" else "thread_name")); ("ph", Str "M");
        ("pid", Int pid); ("tid", Int (max tid 0)); ("args", Obj [ ("name", Str name) ]) ]
  in
  let mids =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if e.Event.mid >= 0 then Some e.Event.mid else None)
         events)
  in
  List.iter
    (fun mid ->
      emit_meta ~pid:mid ~tid:(-1) (Printf.sprintf "node-%d" mid);
      emit_meta ~pid:mid ~tid:track_requests "requests";
      emit_meta ~pid:mid ~tid:track_packets "packets";
      emit_meta ~pid:mid ~tid:track_client "client")
    mids;
  emit_meta ~pid:bus_pid ~tid:(-1) "bus";
  emit_meta ~pid:bus_pid ~tid:0 "medium";
  (* Spans and their phase segments: complete ("X") events on the
     requester's requests track. Nested X events render as a flame. *)
  List.iter
    (fun span ->
      (match Span.duration_us span with
       | Some dur ->
         emit
           [ ("name", Str (Printf.sprintf "REQ#%d" span.Span.tid));
             ("cat", Str "span"); ("ph", Str "X"); ("pid", Int span.Span.mid);
             ("tid", Int track_requests); ("ts", Int span.Span.start_us);
             ("dur", Int dur) ]
       | None -> ());
      List.iter
        (fun seg ->
          emit
            [ ("name", Str (Span.phase_name seg.Span.phase)); ("cat", Str "phase");
              ("ph", Str "X"); ("pid", Int span.Span.mid);
              ("tid", Int track_requests); ("ts", Int seg.Span.seg_start_us);
              ("dur", Int (seg.Span.seg_end_us - seg.Span.seg_start_us)) ])
        span.Span.segments)
    spans;
  (* Point events on the packets / client tracks; bus frames as X events
     on the medium lane. *)
  List.iter
    (fun e ->
      let open Event in
      match e.kind with
      | Bus_frame { src; dst; bytes; start_us; end_us } ->
        emit
          [ ("name", Str (Printf.sprintf "%d->%s %dB" src (peer_name dst) bytes));
            ("cat", Str "bus"); ("ph", Str "X"); ("pid", Int bus_pid);
            ("tid", Int 0); ("ts", Int start_us); ("dur", Int (end_us - start_us)) ]
      | Trap _ | Handler_invoke | Endhandler | Complete _
      | Store_phase _ | Store_retry _ | Store_complete _
      | Scd_broadcast _ | Scd_deliver _ | Scd_op _ ->
        emit
          [ ("name", Str (message e.kind)); ("cat", Str "client"); ("ph", Str "i");
            ("pid", Int e.mid); ("tid", Int track_client); ("ts", Int e.time_us);
            ("s", Str "t") ]
      | Tx _ | Rx _ | Acked _ | Busy_nack _ | Retransmit _ | Probe _ | Deliver _
      | Enqueue _ | Bus_drop _ | Window_advance _ | Window_buffer _ | Cwnd_change _
      | Rtt_sample _ | Mark _ ->
        emit
          [ ("name", Str (message e.kind)); ("cat", Str (kind_label e.kind));
            ("ph", Str "i"); ("pid", Int e.mid); ("tid", Int track_packets);
            ("ts", Int e.time_us); ("s", Str "t") ]
      | Fault_partition _ | Fault_heal | Fault_crash _ | Fault_reboot _
      | Fault_duplicate _ | Fault_jitter _ | Fault_loss_burst _ ->
        (* Injected faults render on the bus lane: they shape what every
           node experiences, so they belong next to the medium timeline. *)
        emit
          [ ("name", Str (message e.kind)); ("cat", Str "fault"); ("ph", Str "i");
            ("pid", Int bus_pid); ("tid", Int 0); ("ts", Int e.time_us);
            ("s", Str "g") ])
    events;
  Buffer.add_string b "\n]}\n"

let chrome events =
  let b = Buffer.create 8192 in
  chrome_to_buffer b events;
  Buffer.contents b

let output_chrome oc events = output_string oc (chrome events)
