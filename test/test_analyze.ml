(* The offline analyzer (Soda_obs.Analyze) against the exporter it
   inverts, and the causal layer end-to-end: a store n=5 run under a
   fault plan must reconstruct one cross-node causal tree per client
   operation, failover retries included. *)

module Event = Soda_obs.Event
module Causal = Soda_obs.Causal
module Export = Soda_obs.Export
module Analyze = Soda_obs.Analyze
module Metrics = Soda_obs.Metrics
module Recorder = Soda_obs.Recorder

let ev ?ctx time_us mid kind = { Event.time_us; mid; kind; ctx }

(* ---- string escaping ------------------------------------------------------ *)

(* No event field is free text any more, so escaping is the JSON
   printer's alone: a string with every byte it escapes prints on one
   line with no raw control byte and reads back unchanged. The parser
   refuses a broadcast payload that names no payload. *)
let test_jsonl_escaping_round_trip () =
  let nasty = "q\"uote b\\ack\nnl\ttab\rcr ctrl\x01\x1f end" in
  let line = Soda_obs.Json.to_string (Soda_obs.Json.Obj [ ("s", Soda_obs.Json.Str nasty) ]) in
  String.iteri
    (fun i c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte %#x at offset %d" (Char.code c) i)
    line;
  Alcotest.(check bool) "string round-trips" true
    (Soda_obs.Json.of_string line = Soda_obs.Json.Obj [ ("s", Soda_obs.Json.Str nasty) ]);
  let broadcast payload =
    Printf.sprintf {|{"t":5,"mid":0,"ev":"scd-broadcast","sd":1,"sn":2,"payload":%S}|} payload
  in
  List.iter
    (fun p ->
      match Analyze.events_of_string (broadcast (Event.scd_payload_name p)) with
      | [ { Event.kind = Event.Scd_broadcast { payload; _ }; _ } ] ->
        Alcotest.(check string) "payload parses" (Event.scd_payload_name p)
          (Event.scd_payload_name payload)
      | _ -> Alcotest.fail "expected one broadcast")
    Event.scd_payloads;
  match Analyze.events_of_string (broadcast "w r1=4") with
  | exception Analyze.Parse_error _ -> ()
  | _ -> Alcotest.fail "an unknown payload parsed"

(* ---- exact parser inverse over every event kind --------------------------- *)

let all_kinds_events =
  let open Event in
  let root = { Causal.trace = 3; span = 10; parent = Causal.no_parent } in
  let child = Causal.child root ~span:11 in
  [
    ev ~ctx:root 0 1 (Trap { tid = 7; dst = 0; pattern = 42; put_size = 3; get_size = 0 });
    ev ~ctx:child 1 1 (Enqueue { tid = 7; peer = 0; pkt = P_request });
    ev 2 1 (Tx { tid = 7; peer = 0; pkt = P_request; bytes = 20; seq = 0; retry = false });
    ev 3 1 (Tx { tid = 7; peer = 0; pkt = P_put_data; bytes = 64; seq = 5; retry = true });
    ev 4 0 (Rx { tid = 7; peer = 1; pkt = P_request; bytes = 20; seq = 1 });
    ev 5 1 (Acked { tid = 7; peer = 0; pkt = P_accept });
    ev 6 0 (Busy_nack { tid = 7; peer = 1 });
    ev 7 1 (Retransmit { tid = 7; peer = 0; pkt = P_request; attempt = 2 });
    ev 8 1 (Window_advance { peer = 0; base = 4; in_flight = 3 });
    ev 9 0 (Window_buffer { tid = 7; peer = 1; seq = 6; expected = 4 });
    ev 10 1 (Probe { tid = 7; peer = 0; misses = 1 });
    ev 10 1 (Cwnd_change { peer = 0; cwnd = 6; in_flight = 4; reason = Cwnd_loss });
    ev 10 1 (Rtt_sample { peer = 0; sample_us = 2_100; srtt_us = 2_000; rttvar_us = 150 });
    ev 11 0
      (Deliver
         { tid = 7; src = 1; pattern = 42; put_size = 3; get_size = 0;
           from_buffer = true });
    ev 12 0 Handler_invoke;
    ev 13 0 Endhandler;
    ev 14 1 (Complete { tid = 7; status = Accepted });
    ev 15 (-1) (Bus_frame { src = 1; dst = -1; bytes = 28; start_us = 14; end_us = 15 });
    ev 16 (-1) (Bus_drop { src = 1; dst = 0; reason = Drop_partitioned });
    ev 16 (-1) (Bus_drop { src = 1; dst = 2; reason = Drop_lost });
    ev 16 (-1) (Bus_drop { src = 2; dst = 0; reason = Drop_corrupted });
    ev 17 (-1) (Fault_partition { group_a = [ 0; 1 ]; group_b = [ 2 ] });
    ev 18 (-1) (Fault_partition { group_a = []; group_b = [] });
    ev 19 (-1) Fault_heal;
    ev 20 (-1) (Fault_crash { mid = 2 });
    ev 21 (-1) (Fault_reboot { mid = 2 });
    ev 22 (-1) (Fault_duplicate { count = 3 });
    ev 23 (-1) (Fault_jitter { min_us = 0; max_us = 2000 });
    ev 24 (-1) (Fault_loss_burst { rate_pct = 40; duration_us = 200_000 });
    ev 25 6
      (Store_phase
         { op = Op_write; phase = Propagate; key = 2; acks = 2; quorum = 3;
           elapsed_us = 5_000 });
    ev 26 6 (Store_retry { op = Op_cas; phase = Query; key = 2; attempt = 1 });
    ev 27 6
      (Store_complete { op = Op_read; key = 2; ok = false; rounds = 4; elapsed_us = 99 });
    ev 28 3 (Scd_broadcast { sd = 3; sn = 9; payload = Payload_write });
    ev 29 3 (Scd_deliver { size = 2; pending = 5 });
    ev 30 3 (Scd_op { op = Scd_write; origin = 3; oseq = 1; ok = true; elapsed_us = 812 });
    ev 30 3 (Scd_op { op = Scd_snapshot; origin = 3; oseq = 2; ok = false; elapsed_us = 9 });
    ev 30 3 (Scd_op { op = Scd_incr; origin = 1; oseq = 3; ok = true; elapsed_us = 40 });
    ev 30 3 (Scd_op { op = Scd_cread; origin = 2; oseq = 4; ok = true; elapsed_us = 7 });
  ]
  @ List.mapi
      (fun i mark -> ev (31 + i) 0 (Mark { peer = i - 1; tid = 7 - i; mark; n = i }))
      marks

(* The sample of [kind] in [all_kinds_events]. No wildcard: a new event
   kind fails to compile until it has a case here (and so a sample). *)
let sample (kind : Event.kind) =
  let find p = List.find (fun e -> p e.Event.kind) all_kinds_events in
  let open Event in
  match kind with
  | Trap _ -> find (function Trap _ -> true | _ -> false)
  | Enqueue _ -> find (function Enqueue _ -> true | _ -> false)
  | Tx _ -> find (function Tx _ -> true | _ -> false)
  | Rx _ -> find (function Rx _ -> true | _ -> false)
  | Acked _ -> find (function Acked _ -> true | _ -> false)
  | Busy_nack _ -> find (function Busy_nack _ -> true | _ -> false)
  | Retransmit _ -> find (function Retransmit _ -> true | _ -> false)
  | Window_advance _ -> find (function Window_advance _ -> true | _ -> false)
  | Window_buffer _ -> find (function Window_buffer _ -> true | _ -> false)
  | Cwnd_change _ -> find (function Cwnd_change _ -> true | _ -> false)
  | Rtt_sample _ -> find (function Rtt_sample _ -> true | _ -> false)
  | Probe _ -> find (function Probe _ -> true | _ -> false)
  | Deliver _ -> find (function Deliver _ -> true | _ -> false)
  | Handler_invoke -> find (function Handler_invoke -> true | _ -> false)
  | Endhandler -> find (function Endhandler -> true | _ -> false)
  | Complete _ -> find (function Complete _ -> true | _ -> false)
  | Bus_frame _ -> find (function Bus_frame _ -> true | _ -> false)
  | Bus_drop _ -> find (function Bus_drop _ -> true | _ -> false)
  | Fault_partition _ -> find (function Fault_partition _ -> true | _ -> false)
  | Fault_heal -> find (function Fault_heal -> true | _ -> false)
  | Fault_crash _ -> find (function Fault_crash _ -> true | _ -> false)
  | Fault_reboot _ -> find (function Fault_reboot _ -> true | _ -> false)
  | Fault_duplicate _ -> find (function Fault_duplicate _ -> true | _ -> false)
  | Fault_jitter _ -> find (function Fault_jitter _ -> true | _ -> false)
  | Fault_loss_burst _ -> find (function Fault_loss_burst _ -> true | _ -> false)
  | Store_phase _ -> find (function Store_phase _ -> true | _ -> false)
  | Store_retry _ -> find (function Store_retry _ -> true | _ -> false)
  | Store_complete _ -> find (function Store_complete _ -> true | _ -> false)
  | Scd_broadcast _ -> find (function Scd_broadcast _ -> true | _ -> false)
  | Scd_deliver _ -> find (function Scd_deliver _ -> true | _ -> false)
  | Scd_op _ -> find (function Scd_op _ -> true | _ -> false)
  | Mark { mark; _ } -> find (function Mark m -> m.mark = mark | _ -> false)

let test_parse_inverts_export () =
  let parsed = Analyze.events_of_string (Export.jsonl all_kinds_events) in
  Alcotest.(check int) "same count" (List.length all_kinds_events) (List.length parsed);
  List.iter2
    (fun want got ->
      if want <> got then
        Alcotest.failf "event at t=%d did not round-trip (%s)" want.Event.time_us
          (Event.kind_label want.Event.kind))
    all_kinds_events parsed;
  List.iter
    (fun mark ->
      ignore (sample (Event.Mark { peer = -1; tid = Event.no_tid; mark; n = 0 })))
    Event.marks

let test_parse_errors () =
  let bad line =
    match Analyze.events_of_string line with
    | exception Analyze.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" line
  in
  bad "{\"t\":1,\"mid\":0,\"ev\":\"no-such-kind\"}";
  bad "{\"t\":1,\"mid\":0";
  bad "not json at all";
  bad "{\"t\":1,\"mid\":0,\"ev\":\"trap\"}" (* missing trap fields *);
  (* a store op or phase outside the typed variants *)
  bad
    "{\"t\":1,\"mid\":0,\"ev\":\"store-retry\",\"op\":\"scan\",\"phase\":\"query\",\
     \"key\":1,\"attempt\":1}";
  bad
    "{\"t\":1,\"mid\":0,\"ev\":\"store-retry\",\"op\":\"read\",\"phase\":\"vote\",\
     \"key\":1,\"attempt\":1}";
  (* a bus-drop reason or SCD op outside the typed variants *)
  bad "{\"t\":1,\"mid\":-1,\"ev\":\"bus-drop\",\"src\":1,\"dst\":0,\"reason\":\"loss\"}";
  bad
    "{\"t\":1,\"mid\":3,\"ev\":\"scd-op\",\"op\":\"swap\",\"origin\":3,\"oseq\":1,\
     \"ok\":true,\"elapsed\":5}"

(* ---- qcheck: analyzer totals match the in-memory histograms --------------- *)

(* Synthesise request lifecycles with known durations, export to JSONL,
   re-ingest with the analyzer: its latency histogram must agree with a
   histogram fed the same durations directly — identical buckets, so
   count/sum/min/max and every percentile match exactly. *)
let span_events durations =
  List.concat
    (List.mapi
       (fun i dur ->
         let t0 = i * 1_000_000 in
         [ ev t0 1 (Event.Trap { tid = i; dst = 0; pattern = 1; put_size = 0; get_size = 0 });
           ev (t0 + dur) 1 (Event.Complete { tid = i; status = Event.Accepted }) ])
       durations)

let prop_latency_totals =
  QCheck.Test.make ~name:"analyze(jsonl) latency histogram matches in-memory" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 900_000))
    (fun durations ->
      let reference = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.observe reference) durations;
      let parsed = Analyze.events_of_string (Export.jsonl (span_events durations)) in
      let h = Analyze.latency_histogram parsed in
      Metrics.Histogram.count h = Metrics.Histogram.count reference
      && Metrics.Histogram.sum h = Metrics.Histogram.sum reference
      && Metrics.Histogram.min_value h = Metrics.Histogram.min_value reference
      && Metrics.Histogram.max_value h = Metrics.Histogram.max_value reference
      && List.for_all
           (fun p ->
             Metrics.Histogram.percentile h p = Metrics.Histogram.percentile reference p)
           [ 50.0; 90.0; 95.0; 99.0; 100.0 ])

(* ---- causal trees end-to-end ---------------------------------------------- *)

let store_fault_run () =
  let module FP = Soda_fault.Fault_plan in
  let plan =
    [ { FP.at_us = 400_000; action = FP.Crash 1 };
      { FP.at_us = 2_000_000; action = FP.Reboot 1 };
      { FP.at_us = 3_000_000; action = FP.Partition ([ 0; 1; 2 ], [ 3; 4 ]) };
      { FP.at_us = 4_500_000; action = FP.Heal } ]
  in
  Soda_store.Harness.run ~n:5 ~seed:7 ~plan ~trace:true ()

let test_store_causal_trees () =
  let module Harness = Soda_store.Harness in
  let module Network = Soda_core.Network in
  let r = store_fault_run () in
  let events = Recorder.events (Network.recorder r.Harness.net) in
  let trees = Analyze.causal_trees events in
  let ops = List.length r.Harness.history in
  Alcotest.(check bool) "clients finished" true
    (r.Harness.clients_done = r.Harness.clients_total);
  Alcotest.(check bool) "ops ran" true (ops > 0);
  (* one causal tree per client operation... *)
  Alcotest.(check int) "one tree per client op" ops (List.length trees);
  (* ...every one of them spanning nodes (each op fans out to replicas) *)
  List.iter
    (fun tree ->
      Alcotest.(check bool)
        (Printf.sprintf "trace %d crosses nodes" tree.Analyze.t_trace)
        true (Analyze.cross_node tree))
    trees;
  (* quorum fan-out: trees touch at least a majority of the 5 replicas *)
  List.iter
    (fun tree ->
      let replicas = List.filter (fun m -> m < 5) tree.Analyze.t_mids in
      Alcotest.(check bool)
        (Printf.sprintf "trace %d reaches a quorum" tree.Analyze.t_trace)
        true
        (List.length replicas >= 3))
    trees;
  (* the crash forces retries: some tree must record a retransmission *)
  let has_retry =
    List.exists
      (fun e ->
        match (e.Event.kind, e.Event.ctx) with
        | Event.Retransmit _, Some _ -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "a stamped retransmit survives the crash window" true has_retry;
  (* critical paths exist and start at each tree's root *)
  List.iter
    (fun tree ->
      match Analyze.critical_path tree with
      | [] -> Alcotest.failf "trace %d has an empty critical path" tree.Analyze.t_trace
      | root :: _ ->
        Alcotest.(check bool) "path starts at a root" true
          (root.Analyze.sn_parent = Causal.no_parent
          || not
               (List.exists
                  (fun t ->
                    List.exists
                      (fun r -> r.Analyze.sn_span = root.Analyze.sn_parent)
                      t.Analyze.t_roots)
                  trees)))
    trees

let test_report_and_dot () =
  let module Harness = Soda_store.Harness in
  let module Network = Soda_core.Network in
  let r = store_fault_run () in
  let events = Recorder.events (Network.recorder r.Harness.net) in
  (* full text report renders without raising *)
  let report = Format.asprintf "%a" (fun ppf -> Analyze.report ppf) events in
  let contains needle haystack =
    let n = String.length needle and l = String.length haystack in
    let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report has causal section" true
    (contains "CAUSAL TREES" report);
  Alcotest.(check bool) "report has pair table" true (contains "NODE PAIRS" report);
  let trees = Analyze.causal_trees events in
  let dot = Analyze.dot trees in
  Alcotest.(check bool) "dot is a digraph" true (contains "digraph causal" dot);
  Alcotest.(check bool) "dot has clusters" true (contains "subgraph cluster_tr" dot);
  (* per-pair accounting saw the retransmissions the fault plan caused *)
  let pairs = Analyze.pair_accounting events in
  Alcotest.(check bool) "some pair retransmitted" true
    (List.exists (fun p -> p.Analyze.retransmits > 0) pairs)

(* ---- causal stamping basics ----------------------------------------------- *)

let test_causal_off_means_no_ctx () =
  let r = Recorder.create () in
  Recorder.set_tracing r true;
  Alcotest.(check bool) "mint_root off" true (Recorder.mint_root r = None);
  Recorder.set_causal r true;
  match Recorder.mint_root r with
  | None -> Alcotest.fail "mint_root on"
  | Some root ->
    Alcotest.(check bool) "root is root" true (Causal.is_root root);
    (match Recorder.mint_child r root with
     | None -> Alcotest.fail "mint_child on"
     | Some child ->
       Alcotest.(check int) "same trace" root.Causal.trace child.Causal.trace;
       Alcotest.(check int) "parent link" root.Causal.span child.Causal.parent;
       Alcotest.(check bool) "distinct span" true (child.Causal.span <> root.Causal.span))

let suites =
  [
    ( "analyze.parser",
      [
        Alcotest.test_case "escaping round-trips" `Quick test_jsonl_escaping_round_trip;
        Alcotest.test_case "every kind round-trips" `Quick test_parse_inverts_export;
        Alcotest.test_case "malformed input raises" `Quick test_parse_errors;
        Helpers.qcheck prop_latency_totals;
      ] );
    ( "analyze.causal",
      [
        Alcotest.test_case "minting" `Quick test_causal_off_means_no_ctx;
        Alcotest.test_case "store fault run: cross-node trees" `Quick
          test_store_causal_trees;
        Alcotest.test_case "report, dot, pair accounting" `Quick test_report_and_dot;
      ] );
  ]
