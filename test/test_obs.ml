module Event = Soda_obs.Event
module Metrics = Soda_obs.Metrics
module Recorder = Soda_obs.Recorder
module Span = Soda_obs.Span
module Export = Soda_obs.Export
module Json = Soda_obs.Json
module Analyze = Soda_obs.Analyze

(* ---- metrics ------------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.add m "c" 4;
  Metrics.set_gauge m "g" 17;
  Metrics.set_gauge m "g" 9;
  Metrics.observe m "h" 5;
  Alcotest.(check int) "counter" 5 (Metrics.counter m "c");
  Alcotest.(check int) "gauge keeps latest" 9 (Metrics.gauge m "g");
  Alcotest.(check bool) "histogram exists" true (Metrics.histogram m "h" <> None);
  Alcotest.(check (list string)) "counter names" [ "c" ] (Metrics.counter_names m);
  Alcotest.(check (list string)) "gauge names" [ "g" ] (Metrics.gauge_names m);
  Alcotest.(check (list string)) "histogram names" [ "h" ] (Metrics.histogram_names m)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "b" 5;
  Alcotest.(check int) "incr" 2 (Metrics.counter m "a");
  Alcotest.(check int) "add" 5 (Metrics.counter m "b");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "zzz");
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Metrics.counter_names m)

(* A slot resolves its cell at its first use: until then the registry
   exports nothing under its name, and a histogram slot has made no
   histogram. *)
let test_metrics_slots () =
  let m = Metrics.create () in
  let client = Metrics.counter_slot m "client" and hits = Metrics.counter_slot m "hits" in
  let lat = Metrics.histogram_slot m "lat" in
  let exported () = Json.of_string (Export.metrics_json m) in
  Alcotest.(check bool) "nothing exported before any use" true
    (exported ()
     = Json.Obj [ ("counters", Json.Obj []); ("gauges", Json.Obj []); ("histograms", Json.Obj []) ]);
  Alcotest.(check bool) "no histogram before the first sample" true
    (Metrics.histogram m "lat" = None);
  Metrics.bump_by client 700;
  Metrics.bump_by client 300;
  Metrics.bump hits;
  Alcotest.(check (list string)) "used counter slots listed" [ "client"; "hits" ]
    (Metrics.counter_names m);
  Alcotest.(check int) "bump_by adds" 1_000 (Metrics.counter m "client");
  Alcotest.(check int) "bump adds one" 1 (Metrics.counter m "hits");
  List.iter (Metrics.sample lat) [ 10; 20; 30 ];
  Alcotest.(check (list string)) "histogram made at the first sample" [ "lat" ]
    (Metrics.histogram_names m);
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "expected a histogram"
  | Some h ->
    Alcotest.(check (float 0.001)) "mean" 20.0 (Metrics.Histogram.mean h);
    Alcotest.(check int) "max" 30 (Metrics.Histogram.max_value h);
    Alcotest.(check int) "p50" 20 (Metrics.Histogram.percentile h 50.0);
    Alcotest.(check int) "p100" 30 (Metrics.Histogram.percentile h 100.0)

let test_percentile_edges () =
  let h = Metrics.Histogram.create () in
  (* empty series *)
  Alcotest.(check int) "empty p50" 0 (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check int) "empty count" 0 (Metrics.Histogram.count h);
  Alcotest.(check int) "empty max" 0 (Metrics.Histogram.max_value h);
  (* single sample: every percentile is that sample *)
  Metrics.Histogram.observe h 37;
  Alcotest.(check int) "single p0" 37 (Metrics.Histogram.percentile h 0.0);
  Alcotest.(check int) "single p50" 37 (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check int) "single p100" 37 (Metrics.Histogram.percentile h 100.0);
  (* out-of-range and NaN percentiles clamp instead of raising *)
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe h) [ 10; 20; 30 ];
  Alcotest.(check int) "p<0 clamps to min" 10 (Metrics.Histogram.percentile h (-5.0));
  Alcotest.(check int) "p>100 clamps to max" 30 (Metrics.Histogram.percentile h 200.0);
  Alcotest.(check int) "NaN clamps to min" 10 (Metrics.Histogram.percentile h Float.nan);
  (* a negative sample clamps to zero and still counts *)
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.observe h (-50);
  Alcotest.(check int) "negative sample clamps" 0 (Metrics.Histogram.max_value h);
  Alcotest.(check int) "negative sample counted" 1 (Metrics.Histogram.count h)

let test_histogram_small_values_exact () =
  (* Below 64 the buckets are exact unit buckets: percentiles of small
     integer series must come out exactly. *)
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe h) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 150 (Metrics.Histogram.sum h);
  Alcotest.(check int) "p20" 10 (Metrics.Histogram.percentile h 20.0);
  Alcotest.(check int) "p50" 30 (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check int) "p80" 40 (Metrics.Histogram.percentile h 80.0);
  Alcotest.(check int) "p100" 50 (Metrics.Histogram.percentile h 100.0)

let test_histogram_large_values_bounded_error () =
  (* Above 64 the buckets are log-scale with 32 sub-buckets per octave:
     percentiles may be off by at most ~3.2% (one sub-bucket). *)
  let h = Metrics.Histogram.create () in
  for v = 1 to 100_000 do
    Metrics.Histogram.observe h v
  done;
  Alcotest.(check int) "min exact" 1 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "max exact" 100_000 (Metrics.Histogram.max_value h);
  List.iter
    (fun p ->
      let exact = int_of_float (float_of_int 100_000 *. p /. 100.0) in
      let got = Metrics.Histogram.percentile h p in
      let err = abs (got - exact) in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 3.5%% (got %d, exact %d)" p got exact)
        true
        (float_of_int err <= 0.035 *. float_of_int exact))
    [ 50.0; 90.0; 95.0; 99.0 ]

let test_histogram_negative_clamps () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.observe h (-17);
  Alcotest.(check int) "clamped to 0" 0 (Metrics.Histogram.max_value h);
  Alcotest.(check int) "count" 1 (Metrics.Histogram.count h)

(* Samples of bit length ≥ 59 wrapped the sub-bucket product and fell
   into the top octave's first sub-bucket, so every percentile read about
   2^61 + 2^56. Each must land within one sub-bucket (1/32) of itself. *)
let test_histogram_huge_samples () =
  let h = Metrics.Histogram.create () in
  let three_2_60 = 3 * (1 lsl 60) in
  List.iter (Metrics.Histogram.observe h) [ (1 lsl 61) + 1; three_2_60; max_int ];
  let within what target p =
    let got = Metrics.Histogram.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%g within 1/32 of %s (got %d)" p what got)
      true
      (abs (got - target) <= target / 32)
  in
  within "2^61" (1 lsl 61) 33.0;
  within "3*2^60" three_2_60 50.0;
  within "3*2^60" three_2_60 66.6;
  within "max_int" max_int 99.0;
  Alcotest.(check int) "p100 is the max" max_int (Metrics.Histogram.percentile h 100.0)

(* The same three samples total 9·2^60, past [max_int]: the total is kept
   exactly, [sum] saturates, and the mean is the exact 3·2^60, between
   the histogram's own min and max. *)
let test_histogram_total_past_max_int () =
  let h = Metrics.Histogram.create () in
  let three_2_60 = 3 * (1 lsl 60) in
  List.iter (Metrics.Histogram.observe h) [ (1 lsl 61) + 1; three_2_60; max_int ];
  Alcotest.(check int) "sum saturates" max_int (Metrics.Histogram.sum h);
  let mean = Metrics.Histogram.mean h in
  Alcotest.(check (float 0.0)) "mean of the exact total" (float_of_int three_2_60) mean;
  Alcotest.(check bool) "min <= mean <= max" true
    (float_of_int (Metrics.Histogram.min_value h) <= mean
    && mean <= float_of_int (Metrics.Histogram.max_value h));
  let small = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe small) [ 3; 4; 1_000_000 ];
  Alcotest.(check int) "a total that fits is exact" 1_000_007 (Metrics.Histogram.sum small)

(* The reference keeps every bucket and takes the sub-bucket in its
   multiplication form, exact below 2^57: a histogram that keeps only the
   span its samples reach must read the same for every sample drawn. *)
module Ref_histogram = struct
  let bucket_count = 64 + ((62 - 6) * 32)

  let bucket_index v =
    if v < 64 then v
    else begin
      let k = ref 0 in
      while v lsr !k > 0 do
        incr k
      done;
      let base = 1 lsl (!k - 1) in
      64 + ((!k - 7) * 32) + ((v - base) * 32 / base)
    end

  let bucket_upper idx =
    if idx < 64 then idx
    else begin
      let base = 1 lsl (((idx - 64) / 32) + 6) in
      base + (((idx - 64) mod 32) + 1) * base / 32 - 1
    end

  type t = { mutable samples : int list; buckets : int array }

  let create () = { samples = []; buckets = Array.make bucket_count 0 }

  let observe h v =
    let v = max 0 v in
    h.samples <- v :: h.samples;
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1

  let count h = List.length h.samples
  let sum h = List.fold_left ( + ) 0 h.samples
  let min_value h = List.fold_left min max_int h.samples
  let max_value h = List.fold_left max 0 h.samples

  let percentile h p =
    let n = count h in
    if n = 0 then 0
    else if p <= 0.0 then min_value h
    else if p >= 100.0 then max_value h
    else begin
      let rank = max 1 (min n (int_of_float (ceil (p /. 100.0 *. float_of_int n)))) in
      let rec walk i cum =
        let cum = cum + h.buckets.(i) in
        if cum >= rank then min (max (bucket_upper i) (min_value h)) (max_value h)
        else walk (i + 1) cum
      in
      walk 0 0
    end
end

(* Sample lists that make the span grow both ways: 0, negatives (clamped
   to 0), small exact values, single octaves up to 2^40, and runs sorted
   down then up. *)
let prop_histogram_matches_full_buckets =
  let open QCheck.Gen in
  let octave = int_range 7 41 >>= fun k -> int_range (1 lsl (k - 1)) ((1 lsl k) - 1) in
  let sample =
    frequency
      [ (1, return 0); (1, int_range (-1_000) (-1)); (3, int_range 1 63); (4, octave) ]
  in
  let one_octave =
    int_range 7 41 >>= fun k -> list_size (int_range 1 100) (int_range (1 lsl (k - 1)) ((1 lsl k) - 1))
  in
  let down_then_up =
    map2
      (fun a b -> List.sort (fun x y -> compare y x) a @ List.sort compare b)
      (list_size (int_range 0 60) sample)
      (list_size (int_range 0 60) sample)
  in
  let samples =
    frequency
      [ (3, list_size (int_range 0 200) sample); (1, one_octave); (2, down_then_up) ]
  in
  let ps = [ 0.0; 0.1; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
  QCheck.Test.make ~name:"histogram reads as one that keeps every bucket" ~count:500
    (QCheck.make ~print:QCheck.Print.(list int) samples)
    (fun samples ->
      let h = Metrics.Histogram.create () and r = Ref_histogram.create () in
      List.iter
        (fun v ->
          Metrics.Histogram.observe h v;
          Ref_histogram.observe r v)
        samples;
      let n = Ref_histogram.count r in
      Metrics.Histogram.count h = n
      && Metrics.Histogram.sum h = Ref_histogram.sum r
      && Metrics.Histogram.min_value h = (if n = 0 then 0 else Ref_histogram.min_value r)
      && Metrics.Histogram.max_value h = Ref_histogram.max_value r
      && Metrics.Histogram.mean h
         = (if n = 0 then 0.0 else float_of_int (Ref_histogram.sum r) /. float_of_int n)
      && List.for_all
           (fun p -> Metrics.Histogram.percentile h p = Ref_histogram.percentile r p)
           ps)

(* A histogram holds the buckets its samples reach and nothing more: none
   before the first sample, and a span of at most twice one octave's 32
   buckets when every sample falls in one octave. *)
let test_histogram_memory () =
  let empty = Metrics.Histogram.create () in
  (* Everything but the record and its bucket array's header. *)
  let bucket_words h = Obj.reachable_words (Obj.repr h) - (1 + Obj.size (Obj.repr empty)) - 1 in
  Alcotest.(check int) "an empty histogram holds no bucket" 0 (bucket_words empty);
  let h = Metrics.Histogram.create () in
  (* The middle of the octave first, then down to its bottom and up to its
     top: growth in both directions. *)
  List.iter (Metrics.Histogram.observe h) [ 1536; 1200; 1024; 1800; 2047 ];
  for v = 1024 to 2047 do
    Metrics.Histogram.observe h v
  done;
  let buckets = bucket_words h in
  Alcotest.(check bool)
    (Printf.sprintf "one octave holds at most 64 bucket words (holds %d)" buckets)
    true (buckets <= 2 * 32)

(* ---- recorder ------------------------------------------------------------ *)

let test_recorder_enable_disable () =
  let r = Recorder.create () in
  Alcotest.(check bool) "off by default" false (Recorder.tracing r);
  Recorder.emit r ~time_us:1 ~mid:0 Event.Endhandler;
  Alcotest.(check int) "disabled emits nothing" 0 (Recorder.length r);
  Recorder.set_tracing r true;
  Recorder.emit r ~time_us:2 ~mid:0 Event.Endhandler;
  Recorder.emit r ~time_us:3 ~mid:1 Event.Handler_invoke;
  Alcotest.(check int) "enabled records" 2 (Recorder.length r);
  (match Recorder.events r with
   | [ a; b ] ->
     Alcotest.(check int) "chronological" 2 a.Event.time_us;
     Alcotest.(check int) "chronological 2" 3 b.Event.time_us
   | _ -> Alcotest.fail "expected two events");
  Recorder.clear r;
  Alcotest.(check int) "clear" 0 (Recorder.length r)

(* ---- spans ---------------------------------------------------------------- *)

let ev time_us mid kind = { Event.time_us; mid; kind; ctx = None }

let test_span_derivation () =
  (* Synthetic lifecycle: trap, first transmission, BUSY bounce, retry,
     delivery ack, accept, completion. *)
  let events =
    [
      ev 0 1 (Event.Trap { tid = 7; dst = 0; pattern = 42; put_size = 0; get_size = 0 });
      ev 100 1
        (Event.Tx
           { tid = 7; peer = 0; pkt = Event.P_request; bytes = 20; seq = 0;
             retry = false });
      ev 200 1 (Event.Rx { tid = 7; peer = 0; pkt = Event.P_busy; bytes = 8; seq = 0 });
      ev 300 1
        (Event.Tx
           { tid = 7; peer = 0; pkt = Event.P_request; bytes = 20; seq = 0; retry = true });
      ev 400 1 (Event.Acked { tid = 7; peer = 0; pkt = Event.P_request });
      ev 500 1 (Event.Rx { tid = 7; peer = 0; pkt = Event.P_accept; bytes = 16; seq = 1 });
      ev 600 1 (Event.Complete { tid = 7; status = Event.Accepted });
    ]
  in
  match Span.of_events events with
  | [ span ] ->
    Alcotest.(check int) "tid" 7 span.Span.tid;
    Alcotest.(check int) "mid" 1 span.Span.mid;
    Alcotest.(check (option int)) "duration" (Some 600) (Span.duration_us span);
    Alcotest.(check (option string)) "status" (Some "accepted") span.Span.status;
    let got =
      List.map
        (fun s -> (Span.phase_name s.Span.phase, s.Span.seg_start_us, s.Span.seg_end_us))
        span.Span.segments
    in
    Alcotest.(check (list (triple string int int)))
      "phase segments"
      [
        ("queued", 0, 100);
        ("on-wire", 100, 200);
        ("busy-backoff", 200, 300);
        ("on-wire", 300, 400);
        ("awaiting-accept", 400, 500);
        ("accept-transfer", 500, 600);
      ]
      got;
    let bd = Span.breakdown [ span ] in
    Alcotest.(check int) "on-wire total" 200 (List.assoc Span.On_wire bd);
    Alcotest.(check int) "queued total" 100 (List.assoc Span.Queued bd)
  | spans -> Alcotest.fail (Printf.sprintf "expected one span, got %d" (List.length spans))

let test_span_open_at_capture () =
  let events =
    [
      ev 0 1 (Event.Trap { tid = 9; dst = 0; pattern = 1; put_size = 0; get_size = 0 });
      ev 50 1
        (Event.Tx
           { tid = 9; peer = 0; pkt = Event.P_request; bytes = 20; seq = 0;
             retry = false });
    ]
  in
  match Span.of_events events with
  | [ span ] ->
    Alcotest.(check (option int)) "still open" None span.Span.end_us;
    Alcotest.(check (option int)) "no duration" None (Span.duration_us span);
    (* only the closed queued segment is attributed *)
    Alcotest.(check int) "one segment" 1 (List.length span.Span.segments)
  | _ -> Alcotest.fail "expected one open span"

(* ---- end-to-end through a simulated network ------------------------------- *)

let traced_pingpong () =
  let module Network = Soda_core.Network in
  let module Sodal = Soda_runtime.Sodal in
  let module Pattern = Soda_base.Pattern in
  let patt = Pattern.well_known 0o555 in
  let net = Network.create ~seed:7 ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             ignore
               (Sodal.accept_current_exchange env ~arg:0 ~into:(Bytes.create 1)
                  ~data:Bytes.empty));
       });
  let remaining = ref 3 in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             while !remaining > 0 do
               let c = Sodal.b_signal env sv ~arg:0 in
               if c.Sodal.status <> Sodal.Comp_ok then failwith "signal failed";
               decr remaining
             done;
             Sodal.serve env);
       });
  ignore (Network.run ~until:60_000_000 net);
  Alcotest.(check int) "all signals completed" 0 !remaining;
  net

let test_network_events_and_spans () =
  let module Network = Soda_core.Network in
  let net = traced_pingpong () in
  let events = Recorder.events (Network.recorder net) in
  Alcotest.(check bool) "events recorded" true (List.length events > 10);
  let sorted = ref true and last = ref min_int in
  List.iter
    (fun e ->
      if e.Event.time_us < !last then sorted := false;
      last := e.Event.time_us)
    events;
  Alcotest.(check bool) "chronological order" true !sorted;
  let spans = Span.of_events events in
  let closed = List.filter (fun s -> s.Span.end_us <> None) spans in
  Alcotest.(check int) "one span per signal" 3 (List.length closed);
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "accepted" (Some "accepted") s.Span.status;
      Alcotest.(check bool) "has segments" true (s.Span.segments <> []))
    closed

let test_exporters_well_formed () =
  let module Network = Soda_core.Network in
  let net = traced_pingpong () in
  let events = Recorder.events (Network.recorder net) in
  (* JSONL: one object per line, matching the event count *)
  let jsonl = Export.jsonl events in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one line per event" (List.length events) (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is an object" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}'))
    lines;
  (* Chrome: top-level wrapper plus one lane (metadata) per node and bus *)
  let chrome = Export.chrome events in
  let contains needle =
    let n = String.length needle and l = String.length chrome in
    let rec go i = i + n <= l && (String.sub chrome i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has process metadata" true (contains "process_name");
  Alcotest.(check bool) "has bus lane" true (contains "\"bus\"");
  let trimmed = String.trim chrome in
  Alcotest.(check bool) "balanced wrapper" true
    (trimmed.[String.length trimmed - 1] = '}');
  (* timeline renders without raising and one line per event *)
  let timeline = Format.asprintf "%a" Export.pp_timeline events in
  Alcotest.(check bool) "timeline non-empty" true (String.length timeline > 0)

(* A REJECT is an ACCEPT with a negative argument (§4.1.2): the requester
   sees Comp_rejected, so the trace must say "rejected", not "accepted",
   and the JSONL export must carry it through the analyzer. *)
let test_reject_traces_rejected () =
  let module Network = Soda_core.Network in
  let module Sodal = Soda_runtime.Sodal in
  let module Pattern = Soda_base.Pattern in
  let patt = Pattern.well_known 0o556 in
  let net = Network.create ~seed:7 ~trace:true () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> Sodal.reject env);
       });
  let status = ref None in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             status := Some c.Sodal.status;
             Sodal.serve env);
       });
  ignore (Network.run ~until:60_000_000 net);
  Alcotest.(check bool) "requester saw a rejection" true (!status = Some Sodal.Comp_rejected);
  let completions events =
    List.filter_map
      (fun e ->
        match e.Event.kind with
        | Event.Complete { status; _ } when e.Event.mid = 1 -> Some (Event.status_name status)
        | _ -> None)
      events
  in
  let events = Recorder.events (Network.recorder net) in
  Alcotest.(check (list string)) "traced" [ "rejected" ] (completions events);
  Alcotest.(check (list string)) "through JSONL and the analyzer" [ "rejected" ]
    (completions (Analyze.events_of_string (Export.jsonl events)))

(* ---- the JSON value type ---------------------------------------------------- *)

let json_gen =
  let open QCheck.Gen in
  let awkward = oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x01'; '\x1f'; '\x7f'; '/' ] in
  let str = string_size ~gen:(frequency [ (2, char); (1, awkward) ]) (int_range 0 10) in
  let finite = map (fun f -> if Float.is_finite f then f else -0.5) float in
  let leaf =
    oneof
      [ map (fun b -> Json.Bool b) bool; map (fun n -> Json.Int n) int;
        map (fun n -> Json.Int n) (int_range (-1000) 1000);
        map (fun f -> Json.Float f) finite;
        map (fun n -> Json.Float (float_of_int n)) (int_range (-1000) 1000);
        map (fun s -> Json.Str s) str ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair str (self (depth - 1))))
            ) ])
    3

let prop_json_round_trip =
  QCheck.Test.make ~name:"json: of_string (to_string v) = v, no raw control byte" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let s = Json.to_string v in
      String.for_all (fun c -> Char.code c >= 0x20) s && Json.of_string s = v)

let test_json_parse_errors () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error on %S" text)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "null"; "1 2"; "\"\\x\""; "\"\\u12\""; "-" ]

(* The metrics dump reads back to the registry it was made from. *)
let test_metrics_dump_parses () =
  let m = Metrics.create () in
  Metrics.add m "pkt.sent" 12;
  Metrics.incr m "weird \"name\"";
  Metrics.set_gauge m "depth" 4;
  List.iter (Metrics.observe m "lat") [ 5; 9; 200 ];
  let other = Metrics.create () in
  Metrics.incr other "c";
  let dump = Export.metrics_sections_json [ ("node.0", m); ("bus", other) ] in
  let get path v =
    List.fold_left
      (fun v key ->
        match v with
        | Json.Obj fields when List.mem_assoc key fields -> List.assoc key fields
        | _ -> Alcotest.failf "no member %S" key)
      v path
  in
  let v = Json.of_string dump in
  let check_int what want path =
    Alcotest.(check bool) what true (get path v = Json.Int want)
  in
  List.iter
    (fun name -> check_int name (Metrics.counter m name) [ "node.0"; "counters"; name ])
    (Metrics.counter_names m);
  check_int "gauge" 4 [ "node.0"; "gauges"; "depth" ];
  check_int "histogram count" 3 [ "node.0"; "histograms"; "lat"; "count" ];
  check_int "histogram sum" 214 [ "node.0"; "histograms"; "lat"; "sum" ];
  check_int "second section" 1 [ "bus"; "counters"; "c" ];
  Alcotest.(check bool) "mean in shortest form" true
    (get [ "node.0"; "histograms"; "lat"; "mean" ] v = Json.Float (214.0 /. 3.0));
  Alcotest.(check bool) "one registry alone" true
    (Json.of_string (Export.metrics_json other) = get [ "bus" ] v)

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "counters" `Quick test_metrics_counters;
        Alcotest.test_case "slots absent until used" `Quick test_metrics_slots;
        Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
        Alcotest.test_case "histogram small values exact" `Quick
          test_histogram_small_values_exact;
        Alcotest.test_case "histogram log-scale error bound" `Quick
          test_histogram_large_values_bounded_error;
        Alcotest.test_case "histogram clamps negatives" `Quick
          test_histogram_negative_clamps;
        Alcotest.test_case "histogram huge samples" `Quick test_histogram_huge_samples;
        Alcotest.test_case "histogram total past max_int" `Quick
          test_histogram_total_past_max_int;
        Helpers.qcheck prop_histogram_matches_full_buckets;
        Alcotest.test_case "histogram holds only the buckets it reaches" `Quick
          test_histogram_memory;
      ] );
    ( "obs.recorder",
      [ Alcotest.test_case "enable/disable" `Quick test_recorder_enable_disable ] );
    ( "obs.span",
      [
        Alcotest.test_case "phase derivation" `Quick test_span_derivation;
        Alcotest.test_case "open at capture" `Quick test_span_open_at_capture;
      ] );
    ( "obs.end-to-end",
      [
        Alcotest.test_case "network events and spans" `Quick test_network_events_and_spans;
        Alcotest.test_case "exporters well-formed" `Quick test_exporters_well_formed;
        Alcotest.test_case "a REJECT traces rejected" `Quick test_reject_traces_rejected;
      ] );
    ( "obs.json",
      [
        Helpers.qcheck prop_json_round_trip;
        Alcotest.test_case "malformed input raises" `Quick test_json_parse_errors;
        Alcotest.test_case "metrics dump parses back" `Quick test_metrics_dump_parses;
      ] );
  ]
