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

(* ---- JSON plumbing (hand-rolled: no json dependency in the image) ------- *)

let escape_json s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type json_field = string * [ `Int of int | `Str of string | `Bool of bool ]

let add_object b (fields : json_field list) =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b k;
      Buffer.add_string b "\":";
      match v with
      | `Int n -> Buffer.add_string b (string_of_int n)
      | `Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape_json s);
        Buffer.add_char b '"'
      | `Bool flag -> Buffer.add_string b (if flag then "true" else "false"))
    fields;
  Buffer.add_char b '}'

(* ---- JSONL -------------------------------------------------------------- *)

let event_fields (e : Event.t) : json_field list =
  let open Event in
  let base = [ ("t", `Int e.time_us); ("mid", `Int e.mid); ("ev", `Str (kind_label e.kind)) ] in
  (* Window-1 traffic only uses sequence numbers 0/1, which are rendered as
     the booleans the alternating-bit seed emitted so the golden JSONL
     trace stays byte-identical; wider windows render the number. *)
  let seq_field seq : [ `Int of int | `Str of string | `Bool of bool ] =
    if seq < 2 then `Bool (seq = 1) else `Int seq
  in
  let extra =
    match e.kind with
    | Trap { tid; dst; pattern; put_size; get_size } ->
      [ ("tid", `Int tid); ("dst", `Int dst); ("pattern", `Int pattern);
        ("put", `Int put_size); ("get", `Int get_size) ]
    | Enqueue { tid; peer; pkt } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("pkt", `Str (pkt_name pkt)) ]
    | Tx { tid; peer; pkt; bytes; seq; retry } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("pkt", `Str (pkt_name pkt));
        ("bytes", `Int bytes); ("seq", seq_field seq); ("retry", `Bool retry) ]
    | Rx { tid; peer; pkt; bytes; seq } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("pkt", `Str (pkt_name pkt));
        ("bytes", `Int bytes); ("seq", seq_field seq) ]
    | Acked { tid; peer; pkt } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("pkt", `Str (pkt_name pkt)) ]
    | Busy_nack { tid; peer } -> [ ("tid", `Int tid); ("peer", `Int peer) ]
    | Retransmit { tid; peer; pkt; attempt } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("pkt", `Str (pkt_name pkt));
        ("attempt", `Int attempt) ]
    | Window_advance { peer; base; in_flight } ->
      [ ("peer", `Int peer); ("base", `Int base); ("in_flight", `Int in_flight) ]
    | Window_buffer { tid; peer; seq; expected } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("seq", `Int seq);
        ("expected", `Int expected) ]
    | Cwnd_change { peer; cwnd; in_flight; reason } ->
      [ ("peer", `Int peer); ("cwnd", `Int cwnd); ("in_flight", `Int in_flight);
        ("reason", `Str reason) ]
    | Rtt_sample { peer; sample_us; srtt_us; rttvar_us } ->
      [ ("peer", `Int peer); ("sample", `Int sample_us); ("srtt", `Int srtt_us);
        ("rttvar", `Int rttvar_us) ]
    | Probe { tid; peer; misses } ->
      [ ("tid", `Int tid); ("peer", `Int peer); ("misses", `Int misses) ]
    | Deliver { tid; src; pattern; put_size; get_size; from_buffer } ->
      [ ("tid", `Int tid); ("src", `Int src); ("pattern", `Int pattern);
        ("put", `Int put_size); ("get", `Int get_size); ("buffered", `Bool from_buffer) ]
    | Handler_invoke | Endhandler -> []
    | Complete { tid; status } -> [ ("tid", `Int tid); ("status", `Str status) ]
    | Bus_frame { src; dst; bytes; start_us; end_us } ->
      [ ("src", `Int src); ("dst", `Int dst); ("bytes", `Int bytes);
        ("start", `Int start_us); ("end", `Int end_us) ]
    | Bus_drop { src; dst; reason } ->
      [ ("src", `Int src); ("dst", `Int dst); ("reason", `Str reason) ]
    | Fault_partition { group_a; group_b } ->
      [ ("a", `Str (mids_string group_a)); ("b", `Str (mids_string group_b)) ]
    | Fault_heal -> []
    | Fault_crash { mid } -> [ ("node", `Int mid) ]
    | Fault_reboot { mid } -> [ ("node", `Int mid) ]
    | Fault_duplicate { count } -> [ ("count", `Int count) ]
    | Fault_jitter { min_us; max_us } -> [ ("min", `Int min_us); ("max", `Int max_us) ]
    | Fault_loss_burst { rate_pct; duration_us } ->
      [ ("rate_pct", `Int rate_pct); ("duration", `Int duration_us) ]
    | Store_phase { op; phase; key; acks; quorum; elapsed_us } ->
      [ ("op", `Str (store_op_name op)); ("phase", `Str (store_phase_name phase));
        ("key", `Int key); ("acks", `Int acks); ("quorum", `Int quorum);
        ("elapsed", `Int elapsed_us) ]
    | Store_retry { op; phase; key; attempt } ->
      [ ("op", `Str (store_op_name op)); ("phase", `Str (store_phase_name phase));
        ("key", `Int key); ("attempt", `Int attempt) ]
    | Store_complete { op; key; ok; rounds; elapsed_us } ->
      [ ("op", `Str (store_op_name op)); ("key", `Int key); ("ok", `Bool ok); ("rounds", `Int rounds);
        ("elapsed", `Int elapsed_us) ]
    | Scd_broadcast { sd; sn; payload } ->
      [ ("sd", `Int sd); ("sn", `Int sn); ("payload", `Str payload) ]
    | Scd_deliver { size; pending } -> [ ("size", `Int size); ("pending", `Int pending) ]
    | Scd_op { op; origin; oseq; ok; elapsed_us } ->
      [ ("op", `Str op); ("origin", `Int origin); ("oseq", `Int oseq); ("ok", `Bool ok);
        ("elapsed", `Int elapsed_us) ]
    | Mark { peer; tid; mark; n } ->
      [ ("peer", `Int peer); ("tid", `Int tid); ("mark", `Str (mark_name mark));
        ("n", `Int n) ]
  in
  (* Causal identity trails the event's own fields; absent when the
     recorder minted no contexts, so pre-causal traces (and the golden
     pingpong trace) are byte-identical. *)
  let causal =
    match e.ctx with
    | None -> []
    | Some c ->
      ("tr", `Int c.Causal.trace) :: ("sp", `Int c.Causal.span)
      ::
      (if c.Causal.parent = Causal.no_parent then []
       else [ ("pa", `Int c.Causal.parent) ])
  in
  base @ extra @ causal

let jsonl_to_buffer b events =
  List.iter
    (fun e ->
      add_object b (event_fields e);
      Buffer.add_char b '\n')
    events

let jsonl events =
  let b = Buffer.create 4096 in
  jsonl_to_buffer b events;
  Buffer.contents b

let output_jsonl oc events =
  let b = Buffer.create 4096 in
  jsonl_to_buffer b events;
  Buffer.output_buffer oc b

(* ---- Metrics registry JSON ---------------------------------------------- *)

(* Machine-readable dump of one registry: counters and gauges verbatim,
   histograms as their summary statistics (the log-scale buckets are an
   implementation detail; percentiles carry the documented ≤ ~3% error).
   [add_object] cannot nest, so the object is written textually. *)
let metrics_to_buffer b m =
  let named_ints close names value =
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (escape_json name) (value name)))
      names;
    Buffer.add_string b close
  in
  Buffer.add_string b "{\"counters\":{";
  named_ints "},\"gauges\":{" (Metrics.counter_names m) (Metrics.counter m);
  named_ints "},\"histograms\":{" (Metrics.gauge_names m) (Metrics.gauge m);
  List.iteri
    (fun i name ->
      match Metrics.histogram m name with
      | None -> ()
      | Some h ->
        if i > 0 then Buffer.add_char b ',';
        let module H = Metrics.Histogram in
        Buffer.add_string b
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"mean\":%.1f,\
              \"p50\":%d,\"p90\":%d,\"p95\":%d,\"p99\":%d}"
             (escape_json name) (H.count h) (H.sum h) (H.min_value h) (H.max_value h)
             (H.mean h) (H.percentile h 50.0) (H.percentile h 90.0) (H.percentile h 95.0)
             (H.percentile h 99.0)))
    (Metrics.histogram_names m);
  Buffer.add_string b "}}"

let metrics_json m =
  let b = Buffer.create 1024 in
  metrics_to_buffer b m;
  Buffer.contents b

(* [sections] pairs a name with a registry; the result is one top-level
   object, e.g. {"engine":{...},"bus":{...},"node.0":{...}}. *)
let metrics_sections_json sections =
  let b = Buffer.create 4096 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (escape_json name));
      metrics_to_buffer b m)
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
  let spans = Span.of_events events in
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_string b ",\n ";
    add_object b fields
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n ";
  (* Process / thread name metadata: one lane per node. [add_object] cannot
     nest, so metadata args objects are written textually. *)
  let emit_meta ~pid ~tid name =
    if !first then first := false else Buffer.add_string b ",\n ";
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         (if tid < 0 then "process_name" else "thread_name")
         pid (max tid 0) (escape_json name))
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
           [ ("name", `Str (Printf.sprintf "REQ#%d" span.Span.tid));
             ("cat", `Str "span"); ("ph", `Str "X"); ("pid", `Int span.Span.mid);
             ("tid", `Int track_requests); ("ts", `Int span.Span.start_us);
             ("dur", `Int dur) ]
       | None -> ());
      List.iter
        (fun seg ->
          emit
            [ ("name", `Str (Span.phase_name seg.Span.phase)); ("cat", `Str "phase");
              ("ph", `Str "X"); ("pid", `Int span.Span.mid);
              ("tid", `Int track_requests); ("ts", `Int seg.Span.seg_start_us);
              ("dur", `Int (seg.Span.seg_end_us - seg.Span.seg_start_us)) ])
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
          [ ("name", `Str (Printf.sprintf "%d->%s %dB" src (peer_name dst) bytes));
            ("cat", `Str "bus"); ("ph", `Str "X"); ("pid", `Int bus_pid);
            ("tid", `Int 0); ("ts", `Int start_us); ("dur", `Int (end_us - start_us)) ]
      | Trap _ | Handler_invoke | Endhandler | Complete _
      | Store_phase _ | Store_retry _ | Store_complete _
      | Scd_broadcast _ | Scd_deliver _ | Scd_op _ ->
        emit
          [ ("name", `Str (message e.kind)); ("cat", `Str "client"); ("ph", `Str "i");
            ("pid", `Int e.mid); ("tid", `Int track_client); ("ts", `Int e.time_us);
            ("s", `Str "t") ]
      | Tx _ | Rx _ | Acked _ | Busy_nack _ | Retransmit _ | Probe _ | Deliver _
      | Enqueue _ | Bus_drop _ | Window_advance _ | Window_buffer _ | Cwnd_change _
      | Rtt_sample _ | Mark _ ->
        emit
          [ ("name", `Str (message e.kind)); ("cat", `Str (kind_label e.kind));
            ("ph", `Str "i"); ("pid", `Int e.mid); ("tid", `Int track_packets);
            ("ts", `Int e.time_us); ("s", `Str "t") ]
      | Fault_partition _ | Fault_heal | Fault_crash _ | Fault_reboot _
      | Fault_duplicate _ | Fault_jitter _ | Fault_loss_burst _ ->
        (* Injected faults render on the bus lane: they shape what every
           node experiences, so they belong next to the medium timeline. *)
        emit
          [ ("name", `Str (message e.kind)); ("cat", `Str "fault"); ("ph", `Str "i");
            ("pid", `Int bus_pid); ("tid", `Int 0); ("ts", `Int e.time_us);
            ("s", `Str "g") ])
    events;
  Buffer.add_string b "\n]}\n"

let chrome events =
  let b = Buffer.create 8192 in
  chrome_to_buffer b events;
  Buffer.contents b

let output_chrome oc events =
  let b = Buffer.create 8192 in
  chrome_to_buffer b events;
  Buffer.output_buffer oc b
