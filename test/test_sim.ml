module Heap = Soda_sim.Heap
module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats

(* ---- heap ---------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~key:5 ~seq:0 "e";
  Heap.push h ~key:1 ~seq:1 "a";
  Heap.push h ~key:3 ~seq:2 "c";
  Heap.push h ~key:1 ~seq:3 "b";
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "min order with fifo ties" [ "a"; "b"; "c"; "e" ]
    (List.rev !order)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek_key h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (k, _, ()) -> k >= last && drain k
      in
      drain min_int)

let prop_heap_preserves_multiset =
  QCheck.Test.make ~name:"heap returns exactly the pushed keys" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain acc =
        match Heap.pop_min h with None -> acc | Some (k, _, ()) -> drain (k :: acc)
      in
      List.sort compare (drain []) = List.sort compare keys)

(* ---- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr matches
  done;
  Alcotest.(check bool) "split streams decorrelated" true (!matches < 4)

let prop_rng_chance_extremes =
  QCheck.Test.make ~name:"chance 0 never fires, chance 1 always" ~count:50 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      (not (Rng.chance rng 0.0)) && Rng.chance rng 1.0)

let test_rng_uniformity () =
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 15% of uniform" true
        (abs (c - (n / 10)) < n * 15 / 100))
    buckets

(* ---- engine ----------------------------------------------------------------- *)

let test_engine_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:30 (fun () -> log := (`C, Engine.now e) :: !log));
  ignore (Engine.schedule e ~delay:10 (fun () -> log := (`A, Engine.now e) :: !log));
  ignore (Engine.schedule e ~delay:20 (fun () -> log := (`B, Engine.now e) :: !log));
  ignore (Engine.run e);
  Alcotest.(check int) "final time" 30 (Engine.now e);
  match List.rev !log with
  | [ (`A, 10); (`B, 20); (`C, 30) ] -> ()
  | _ -> Alcotest.fail "wrong event ordering"

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:7 (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:5 (fun () -> fired := true) in
  Engine.cancel e id;
  Alcotest.(check int) "pending drops" 0 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check bool) "cancelled event never fires" false !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:15 (fun () -> times := Engine.now e :: !times))));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "nested schedule relative to fire time" [ 10; 25 ]
    (List.rev !times)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:100 tick)
  in
  ignore (Engine.schedule e ~delay:0 tick);
  ignore (Engine.run ~until:1000 e);
  Alcotest.(check bool) "bounded run stops" true (!count >= 10 && !count <= 12);
  Alcotest.(check int) "clock advanced to horizon" 1000 (Engine.now e)

let test_engine_stop () =
  let e = Engine.create () in
  let after = ref false in
  ignore (Engine.schedule e ~delay:1 (fun () -> Engine.stop e));
  ignore (Engine.schedule e ~delay:2 (fun () -> after := true));
  ignore (Engine.run e);
  Alcotest.(check bool) "stop aborts the run" false !after

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1) (fun () -> ())))

(* ---- stats -------------------------------------------------------------------- *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  Alcotest.(check int) "incr" 2 (Stats.counter s "a");
  Alcotest.(check int) "add" 5 (Stats.counter s "b");
  Alcotest.(check int) "absent counter" 0 (Stats.counter s "zzz");
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Stats.counter_names s)

let test_stats_times_and_samples () =
  let s = Stats.create () in
  Stats.add_time s "proto" 1500;
  Stats.add_time s "proto" 500;
  Alcotest.(check (float 0.001)) "ms" 2.0 (Stats.time_ms s "proto");
  Stats.sample s "lat" 10;
  Stats.sample s "lat" 20;
  Stats.sample s "lat" 30;
  Alcotest.(check (float 0.001)) "mean" 20.0 (Stats.mean_us s "lat");
  Alcotest.(check int) "max" 30 (Stats.max_us s "lat");
  Alcotest.(check int) "p50" 20 (Stats.percentile_us s "lat" 50.0);
  Alcotest.(check int) "p100" 30 (Stats.percentile_us s "lat" 100.0)

let test_stats_percentile_edges () =
  let s = Stats.create () in
  (* empty series *)
  Alcotest.(check int) "empty p50" 0 (Stats.percentile_us s "none" 50.0);
  Alcotest.(check int) "empty count" 0 (Stats.count s "none");
  Alcotest.(check int) "empty max" 0 (Stats.max_us s "none");
  (* single sample: every percentile is that sample *)
  Stats.sample s "one" 37;
  Alcotest.(check int) "single p0" 37 (Stats.percentile_us s "one" 0.0);
  Alcotest.(check int) "single p50" 37 (Stats.percentile_us s "one" 50.0);
  Alcotest.(check int) "single p100" 37 (Stats.percentile_us s "one" 100.0);
  (* out-of-range and NaN percentiles clamp instead of raising *)
  Stats.sample s "lat" 10;
  Stats.sample s "lat" 20;
  Stats.sample s "lat" 30;
  Alcotest.(check int) "p<0 clamps to min" 10 (Stats.percentile_us s "lat" (-5.0));
  Alcotest.(check int) "p>100 clamps to max" 30 (Stats.percentile_us s "lat" 200.0);
  Alcotest.(check int) "NaN clamps to min" 10 (Stats.percentile_us s "lat" Float.nan);
  (* negative samples clamp to zero rather than corrupting buckets *)
  Stats.sample s "neg" (-50);
  Alcotest.(check int) "negative sample clamps" 0 (Stats.max_us s "neg");
  Alcotest.(check int) "negative sample counted" 1 (Stats.count s "neg")

let test_stats_registry_backing () =
  let s = Stats.create () in
  Stats.incr s "pkt";
  Stats.sample s "lat" 99;
  let m = Stats.registry s in
  Alcotest.(check int) "counter visible in registry" 1
    (Soda_obs.Metrics.counter m "pkt");
  match Stats.histogram s "lat" with
  | Some h -> Alcotest.(check int) "histogram shared" 1 (Soda_obs.Metrics.Histogram.count h)
  | None -> Alcotest.fail "expected histogram"

let test_engine_counters () =
  let e = Engine.create () in
  let cancelled_id = Engine.schedule e ~delay:5 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:1 (fun () -> ()));
  Engine.cancel e cancelled_id;
  Engine.cancel e cancelled_id;  (* double-cancel is a no-op *)
  ignore (Engine.run e);
  let c = Engine.counters e in
  Alcotest.(check int) "scheduled" 2 c.Engine.scheduled;
  Alcotest.(check int) "fired" 1 c.Engine.fired;
  Alcotest.(check int) "cancelled" 1 c.Engine.cancelled;
  Alcotest.(check int) "pending" 0 c.Engine.pending;
  let m = Soda_obs.Metrics.create () in
  Engine.export_metrics e m ~prefix:"eng";
  Alcotest.(check int) "gauge scheduled" 2 (Soda_obs.Metrics.gauge m "eng.scheduled");
  Alcotest.(check int) "gauge clock" 1 (Soda_obs.Metrics.gauge m "eng.clock_us")

let test_engine_profiling () =
  let e = Engine.create () in
  Engine.set_profile_gc e true;
  ignore (Engine.schedule ~tag:"alpha" e ~delay:1 (fun () -> ()));
  ignore (Engine.schedule ~tag:"alpha" e ~delay:2 (fun () -> ()));
  ignore (Engine.schedule ~tag:"beta" e ~delay:3 (fun () -> ()));
  ignore (Engine.schedule e ~delay:4 (fun () -> ()));  (* untagged: uncounted *)
  Alcotest.(check int) "heap high-water tracks pushes" 4 (Engine.heap_highwater e);
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "tag counts" [ ("alpha", 2); ("beta", 1) ] (Engine.tag_counts e);
  Alcotest.(check int) "high-water survives drain" 4 (Engine.heap_highwater e);
  Alcotest.(check bool) "wall clock accrued" true (Engine.wall_seconds e >= 0.0);
  let minor, promoted, major = Engine.gc_words e in
  Alcotest.(check bool) "gc deltas non-negative" true
    (minor >= 0.0 && promoted >= 0.0 && major >= 0.0);
  let m = Soda_obs.Metrics.create () in
  Engine.export_metrics e m ~prefix:"eng";
  Alcotest.(check int) "tag gauge" 2 (Soda_obs.Metrics.gauge m "eng.tag.alpha");
  Alcotest.(check int) "heap gauge" 4 (Soda_obs.Metrics.gauge m "eng.heap_highwater");
  Alcotest.(check bool) "gc gauge present" true
    (List.mem "eng.gc_minor_words" (Soda_obs.Metrics.gauge_names m))

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering with ties" `Quick test_heap_ordering;
        Alcotest.test_case "empty heap" `Quick test_heap_empty;
        QCheck_alcotest.to_alcotest prop_heap_sorted;
        QCheck_alcotest.to_alcotest prop_heap_preserves_multiset;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        QCheck_alcotest.to_alcotest prop_rng_chance_extremes;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
        Alcotest.test_case "same-instant fifo" `Quick test_engine_same_instant_fifo;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "stop" `Quick test_engine_stop;
        Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
        Alcotest.test_case "lifetime counters" `Quick test_engine_counters;
        Alcotest.test_case "profiling counters" `Quick test_engine_profiling;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "counters" `Quick test_stats_counters;
        Alcotest.test_case "times and samples" `Quick test_stats_times_and_samples;
        Alcotest.test_case "percentile edge cases" `Quick test_stats_percentile_edges;
        Alcotest.test_case "metrics registry backing" `Quick test_stats_registry_backing;
      ] );
  ]
