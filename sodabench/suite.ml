(* The SODA benchmark: six workloads, end-to-end metrics on the virtual
   and the wall clock, per-layer metrics from a separate traced run.

   dune exec ./sodabench/suite.exe                    all six workloads, one
                                                       process each, untraced
                                                       then traced
   suite.exe --workload W --seed N --seconds S --trace 0|1
                                                       one run of one workload
   suite.exe --smoke                                   every workload at 1% size
   suite.exe --compare OLD.json [NEW.json]             verdicts per metric
   suite.exe --spec                                    print BENCHMARK.json

   See README.md for the workloads, the metrics and how to read the
   records written under _bench_out/. *)

module Network = Soda_core.Network
module Openloop = Soda_core.Openloop
module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats
module Bus = Soda_net.Bus

let out_dir = "_bench_out"

(* ---- statistics ---- *)

type stat = { value : float; q1 : float; q3 : float }

(* Median and quartiles by linear interpolation between closest ranks,
   the way Python's statistics.quantiles(n=4, method="inclusive") does. *)
let summarize values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let at p =
    if n = 0 then 0.0
    else
      let x = p *. float_of_int (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { value = at 0.5; q1 = at 0.25; q3 = at 0.75 }

let exact v = { value = v; q1 = v; q3 = v }

(* ---- one measured run ---- *)

type record = {
  workload : string;
  seed : int;
  trace : bool;
  seconds : float;
  reps : int;
  samples : int;  (** completed ops behind each latency percentile *)
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * stat) list;
}

(* Virtual-time end-to-end metrics: exact per seed, and the same in every
   rep of one process and in the traced run. *)
let virtual_metrics (r : Loads.result) =
  let sorted = Array.copy r.Loads.latencies_us in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let ms = Loads.percentile_ms sorted in
  let window_s = float_of_int (max 1 (r.Loads.last_done_us - r.Loads.first_issue_us)) /. 1e6 in
  let frames = Stats.counter (Bus.stats (Network.bus r.Loads.net)) "bus.frames_sent" in
  [
    ("op_p50_ms", ms 50.0);
    ("op_p99_ms", ms 99.0);
    ("goodput_ops_s", float_of_int n /. window_s);
    ("frames_per_op", float_of_int frames /. float_of_int (max n 1));
  ]

(* What one rep tells the next: its virtual metrics and accounting. *)
type facts = {
  virt : (string * float) list;
  completed : int;
  attempted_ops : int;
  failed_ops : int;
  rep_errors : string list;
  wall_s : float;
}

let facts (r : Loads.result) =
  {
    virt = virtual_metrics r;
    completed = Array.length r.Loads.latencies_us;
    attempted_ops = r.Loads.attempted;
    failed_ops = r.Loads.failed;
    rep_errors = r.Loads.errors;
    wall_s = Engine.wall_seconds (Network.engine r.Loads.net);
  }

let same_virtual a b = a.virt = b.virt && a.attempted_ops = b.attempted_ops && a.failed_ops = b.failed_ops

(* Each rep starts from a collected heap, so no rep pays for the garbage
   of the one before it. *)
let rep (w : Loads.t) ~scale ~seed ~trace =
  Gc.full_major ();
  w.Loads.run ~scale ~seed ~trace

(* A shared machine has spells in which everything runs up to 1.7x
   slower. They only ever add time, so a rep's simulator speed is read as
   the fastest of the timed reps (the quartiles are kept beside it), and
   set-up is sampled between the reps, across the whole run, instead of in
   one burst that a single spell can cover. *)
let fastest rates = { (summarize rates) with value = List.fold_left Float.max 0.0 rates }

let setup_samples_per_rep = 3
let min_setup_samples = 9

(* One set-up sample: the workload run with zero ops (build, attach,
   boot), timed over a batch of about 5 ms so the clock resolves it, on a
   collected heap so that it pays for no rep's garbage. (Compacting as
   well made the 256-node set-up fetch fresh pages and vary three times
   as much.) *)
let setup_sampler (w : Loads.t) ~seed =
  let setup () = ignore (Sys.opaque_identity (w.Loads.run ~scale:0.0 ~seed ~trace:false)) in
  let t0 = Unix.gettimeofday () in
  setup ();
  let batch = max 1 (int_of_float (0.005 /. Float.max 1e-6 (Unix.gettimeofday () -. t0))) in
  fun () ->
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      setup ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int batch

(* Words still live after a full collection while [result] (the whole
   network and its op log) is reachable: the memory the run retains. The
   heap's high-water mark would include the collector's slack, which
   swung by a fifth between seeds of one workload as major cycles fell
   earlier or later. *)
let live_words result =
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity result);
  live

(* End-to-end metrics, tracing off: one warm-up rep, then timed reps
   until [seconds] have passed (at least one), each followed by set-up
   samples. The live heap is read after the first timed rep. *)
let untraced (w : Loads.t) ~scale ~seed ~seconds =
  let warm = facts (rep w ~scale ~seed ~trace:false) in
  let sample_setup = setup_sampler w ~seed in
  let errors = ref warm.rep_errors in
  let complain msg = if not (List.mem msg !errors) then errors := !errors @ [ msg ] in
  let t_start = Unix.gettimeofday () in
  let rec timed reps setups ~alloc0 ~heap =
    let m0 = Gc.minor_words () in
    let result = rep w ~scale ~seed ~trace:false in
    let alloc = Gc.minor_words () -. m0 in
    let r = facts result in
    let heap = match heap with Some h -> h | None -> live_words result in
    if not (same_virtual r warm) then complain "virtual-time metrics differ between reps";
    let alloc0 = match alloc0 with Some a -> a | None -> alloc in
    if alloc <> alloc0 then complain "allocation differs between reps";
    let reps = (float_of_int r.completed /. r.wall_s) :: reps in
    let setups = List.init setup_samples_per_rep (fun _ -> sample_setup ()) @ setups in
    if Unix.gettimeofday () -. t_start < seconds then
      timed reps setups ~alloc0:(Some alloc0) ~heap:(Some heap)
    else (reps, setups, alloc0, heap)
  in
  let wall_rates, setups, alloc, heap_words = timed [] [] ~alloc0:None ~heap:None in
  let setups =
    setups @ List.init (max 0 (min_setup_samples - List.length setups)) (fun _ -> sample_setup ())
  in
  let completed = float_of_int (max 1 warm.completed) in
  {
    workload = w.Loads.name;
    seed;
    trace = false;
    seconds;
    reps = List.length wall_rates;
    samples = warm.completed;
    attempted = warm.attempted_ops;
    failed = warm.failed_ops;
    errors = !errors;
    metrics =
      List.map (fun (k, v) -> (k, exact v)) warm.virt
      @ [
          ("ops_per_wall_s", fastest wall_rates);
          ("alloc_words_per_op", exact (alloc /. completed));
          ("live_heap_mib", exact (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0));
          ("setup_s", summarize setups);
        ];
  }

(* Per-layer metrics: pairs of an untraced and a traced rep until
   [seconds] have passed (at least one pair). The traced rep must
   reproduce the untraced rep's virtual metrics exactly. *)
let traced (w : Loads.t) ~scale ~seed ~seconds =
  let errors = ref [] in
  let complain msg = if not (List.mem msg !errors) then errors := !errors @ [ msg ] in
  let t_start = Unix.gettimeofday () in
  let rec pairs acc first =
    let plain = facts (rep w ~scale ~seed ~trace:false) in
    let r = rep w ~scale ~seed ~trace:true in
    let traced_facts = facts r in
    List.iter complain traced_facts.rep_errors;
    if not (same_virtual traced_facts plain) then
      complain "the traced run changed virtual-time metrics";
    let encode_ns, decode_ns = Layers.codec_ns (Layers.frame_size_deciles (Network.bus r.Loads.net)) in
    let layer =
      Layers.of_run r @ Layers.of_events r
      @ [
          ("proto.wire.encode_ns", encode_ns);
          ("proto.wire.decode_ns", decode_ns);
          ("obs.trace_overhead", traced_facts.wall_s /. plain.wall_s);
        ]
    in
    let first = match first with Some f -> f | None -> traced_facts in
    let acc = layer :: acc in
    if Unix.gettimeofday () -. t_start < seconds then pairs acc (Some first) else (acc, first)
  in
  let samples, first = pairs [] None in
  {
    workload = w.Loads.name;
    seed;
    trace = true;
    seconds;
    reps = List.length samples;
    samples = first.completed;
    attempted = first.attempted_ops;
    failed = first.failed_ops;
    errors = !errors;
    metrics =
      List.map
        (fun (m : Spec.metric) ->
          ( m.name,
            summarize
              (List.map (fun layer -> try List.assoc m.name layer with Not_found -> 0.0) samples) ))
        Spec.per_layer;
  }

let measure w ~scale ~seed ~seconds ~trace =
  if trace then traced w ~scale ~seed ~seconds else untraced w ~scale ~seed ~seconds

(* ---- records on disk and on stdout ---- *)

let correct r = r.errors = [] && r.failed = 0

let unit_of name = match Spec.find name with Some m -> m.Spec.unit_ | None -> ""

let record_to_json r =
  let open Json in
  Obj
    [
      ("workload", Str r.workload);
      ("seed", Num (float_of_int r.seed));
      ("trace", Num (if r.trace then 1.0 else 0.0));
      ("seconds", Num r.seconds);
      ("reps", Num (float_of_int r.reps));
      ("samples", Num (float_of_int r.samples));
      ("correct", Bool (correct r));
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ("errors", Arr (List.map (fun e -> Str e) r.errors));
      ( "metrics",
        Obj
          (List.map
             (fun (k, s) ->
               ( k,
                 Obj
                   [ ("value", Num s.value); ("unit", Str (unit_of k)); ("q1", Num s.q1);
                     ("q3", Num s.q3) ] ))
             r.metrics) );
    ]

let record_of_json j =
  let open Json in
  let int k = int_of_float (to_num (member k j)) in
  {
    workload = to_str (member "workload" j);
    seed = int "seed";
    trace = int "trace" = 1;
    seconds = to_num (member "seconds" j);
    reps = int "reps";
    samples = int "samples";
    attempted = int "attempted";
    failed = int "failed";
    errors = List.map to_str (to_list (member "errors" j));
    metrics =
      (match member "metrics" j with
       | Obj kv ->
         List.map
           (fun (k, v) ->
             (k, { value = to_num (member "value" v); q1 = to_num (member "q1" v);
                   q3 = to_num (member "q3" v) }))
           kv
       | _ -> []);
  }

(* The result of one run, printed as the last line of stdout. *)
let result_line r =
  let open Json in
  to_string
    (Obj
       [
         ("correct", Bool (correct r));
         ("attempted", Num (float_of_int r.attempted));
         ("failed", Num (float_of_int r.failed));
         ( "metrics",
           Obj
             (List.map
                (fun (k, s) -> (k, Obj [ ("value", Num s.value); ("unit", Str (unit_of k)) ]))
                r.metrics) );
       ])

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let record_path workload ~trace =
  Filename.concat out_dir (Printf.sprintf "%s.trace%d.json" workload (if trace then 1 else 0))

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let print_record r =
  Printf.printf "%s seed %d, %s, %d reps over %.0f s: %d ops attempted, %d failed\n" r.workload
    r.seed (if r.trace then "traced" else "untraced") r.reps r.seconds r.attempted r.failed;
  List.iter
    (fun (k, s) ->
      let note = if k = "op_p99_ms" then Printf.sprintf "  (%d samples)" r.samples else "" in
      if s.q1 = s.q3 then Printf.printf "  %-36s %14.6g %s%s\n" k s.value (unit_of k) note
      else
        Printf.printf "  %-36s %14.6g %s  [q1 %.6g, q3 %.6g]%s\n" k s.value (unit_of k) s.q1 s.q3
          note)
    r.metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors

(* ---- modes ---- *)

let spec_drift () =
  let committed =
    if Sys.file_exists "BENCHMARK.json" then
      let ic = open_in_bin "BENCHMARK.json" in
      Some (Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)))
    else None
  in
  match committed with
  | Some text when text = Spec.render () -> None
  | Some _ -> Some "BENCHMARK.json differs from `suite.exe --spec`"
  | None -> Some "BENCHMARK.json not found in the working directory"

let single ~workload ~seed ~seconds ~trace =
  let w =
    match Loads.find workload with
    | Some w -> w
    | None ->
      Printf.eprintf "suite: unknown workload %S\n" workload;
      exit 2
  in
  let seed = Option.value seed ~default:w.Loads.default_seed in
  let r = measure w ~scale:1.0 ~seed ~seconds ~trace in
  ensure_out_dir ();
  write_file (record_path workload ~trace) (Json.to_string (record_to_json r) ^ "\n");
  print_record r;
  print_endline (result_line r);
  exit (if correct r then 0 else 1)

let run_child args =
  let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let e2e_names = List.map (fun (m : Spec.metric) -> m.name) Spec.end_to_end

let full ~seconds ~held_out ~snapshot =
  (match snapshot with
   | Some path when Sys.file_exists path ->
     Printf.eprintf "suite: snapshot %s already exists; snapshots are write-once\n" path;
     exit 2
   | Some path when not (Sys.file_exists (Filename.dirname path)) ->
     Printf.eprintf "suite: no directory for snapshot %s\n" path;
     exit 2
   | _ -> ());
  let drift = spec_drift () in
  ensure_out_dir ();
  let runs =
    List.concat_map
      (fun (w : Loads.t) ->
        let seed = w.default_seed + if held_out then 1000 else 0 in
        List.map
          (fun trace ->
            let path = record_path w.name ~trace in
            if Sys.file_exists path then Sys.remove path;
            let ok =
              run_child
                [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
                  Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
            in
            if Sys.file_exists path then (ok, Some (record_of_json (Json.read_file path)))
            else (false, None))
          [ false; true ])
      Loads.all
  in
  let records = List.filter_map snd runs in
  let suite =
    Json.to_string
      (Json.Obj
         [ ("held_out", Json.Bool held_out); ("seconds", Json.Num seconds);
           ("runs", Json.Arr (List.map record_to_json records)) ])
    ^ "\n"
  in
  write_file (Filename.concat out_dir "suite.json") suite;
  Option.iter (fun path -> write_file path suite) snapshot;
  Printf.printf "\n%-14s" "workload";
  List.iter (fun k -> Printf.printf " %14s" k) e2e_names;
  print_newline ();
  List.iter
    (fun r ->
      if not r.trace then begin
        Printf.printf "%-14s" r.workload;
        List.iter
          (fun k ->
            match List.assoc_opt k r.metrics with
            | Some s -> Printf.printf " %14.6g" s.value
            | None -> Printf.printf " %14s" "-")
          e2e_names;
        print_newline ()
      end)
    records;
  Printf.printf "\nwrote %s%s\n" (Filename.concat out_dir "suite.json")
    (match snapshot with Some p -> " and " ^ p | None -> "");
  Option.iter (fun d -> Printf.printf "CHECK FAILED: %s\n" d) drift;
  let ok = drift = None && List.for_all (fun (ok, r) -> ok && Option.fold ~none:false ~some:correct r) runs in
  if not ok then print_endline "suite FAILED";
  exit (if ok then 0 else 1)

(* The open-loop driver must serve the same traffic as the SCALE
   section's Openloop.run: same counts and the same number of engine
   events, on a small network. *)
let openloop_agrees () =
  let cfg = Openloop.config ~nodes:8 ~requests:2048 in
  let o = Openloop.run cfg in
  let _, c = Loads.open_loop cfg ~trace:false ~calls:(Loads.Calls.create false) in
  let fired = (Engine.counters (Network.engine o.Openloop.net)).Engine.fired in
  o.Openloop.offered = c.Loads.offered && o.Openloop.issued = c.Loads.issued
  && o.Openloop.completed = c.Loads.done_ok && o.Openloop.failed = c.Loads.done_failed
  && o.Openloop.shed = c.Loads.shed && o.Openloop.gathers = c.Loads.gathers
  && fired = c.Loads.fired

let smoke () =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  Option.iter fail (spec_drift ());
  List.iter
    (fun (w : Loads.t) ->
      List.iter
        (fun trace ->
          let r = measure w ~scale:0.01 ~seed:w.default_seed ~seconds:0.0 ~trace in
          Printf.printf "smoke %-14s %-8s %6d ops, %s\n" w.name
            (if trace then "traced" else "untraced") r.samples
            (if correct r then "ok" else "FAILED: " ^ String.concat "; " r.errors);
          if not (correct r) then fail w.name)
        [ false; true ])
    Loads.all;
  if not (openloop_agrees ()) then fail "zipf_open driver and Openloop.run disagree at N=8";
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev !failures);
  print_endline (if !failures = [] then "smoke OK" else "smoke FAILED");
  exit (if !failures = [] then 0 else 1)

(* Verdict per workload x end-to-end metric. A spread (q3 - q1 over the
   median) wider than the bound on either side leaves it unresolved. *)
let compare_runs ~old_path ~new_path =
  let load path =
    List.filter_map
      (fun j -> let r = record_of_json j in if r.trace then None else Some (r.workload, r))
      (Json.to_list (Json.member "runs" (Json.read_file path)))
  in
  let olds = load old_path and news = load new_path in
  let worse = ref 0 in
  Printf.printf "%-14s %-20s %14s %14s %9s  %s\n" "workload" "metric" "old" "new" "delta" "verdict";
  List.iter
    (fun (name, o) ->
      match List.assoc_opt name news with
      | None -> Printf.printf "%-14s missing from %s\n" name new_path
      | Some n ->
        List.iter
          (fun (m : Spec.metric) ->
            match List.assoc_opt m.name o.metrics, List.assoc_opt m.name n.metrics with
            | Some a, Some b ->
              let delta = (b.value -. a.value) /. a.value in
              let worsened = match m.better with Spec.Lower -> delta | Spec.Higher -> -.delta in
              let spread s = if s.value = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.value in
              let verdict =
                if Float.max (spread a) (spread b) > m.bound then "unresolved"
                else if worsened > m.bound then (incr worse; "worse")
                else if worsened < -.m.bound then "better"
                else "same"
              in
              Printf.printf "%-14s %-20s %14.6g %14.6g %+8.2f%%  %s\n" name m.name a.value b.value
                (100.0 *. delta) verdict
            | _ -> ())
          Spec.end_to_end)
    olds;
  exit (if !worse = 0 then 0 else 1)

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref false in
  let mode = ref `Full and held_out = ref false and snapshot = ref None and extra = ref [] in
  let args =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed (default: the workload's)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S seconds to measure for");
      ( "--trace",
        Arg.Int (fun t -> if t = 0 || t = 1 then trace := t = 1 else raise (Arg.Bad "--trace is 0 or 1")),
        "0|1 end-to-end metrics (0) or per-layer metrics (1)" );
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " every workload at 1% size, traced and not");
      ("--spec", Arg.Unit (fun () -> mode := `Spec), " print BENCHMARK.json");
      ("--compare", Arg.String (fun p -> mode := `Compare p), "OLD.json compare a suite record");
      ("--held-out", Arg.Set held_out, " full run on the held-out seeds (default + 1000)");
      ("--snapshot", Arg.String (fun p -> snapshot := Some p), "PATH also write the suite record here (write-once)");
    ]
  in
  Arg.parse args (fun a -> extra := !extra @ [ a ]) "suite.exe [options]";
  match !mode, !workload, !extra with
  | `Spec, None, [] -> print_string (Spec.render ())
  | `Smoke, None, [] -> smoke ()
  | `Compare old_path, None, ([] | [ _ ]) ->
    let new_path = match !extra with [ p ] -> p | _ -> Filename.concat out_dir "suite.json" in
    compare_runs ~old_path ~new_path
  | `Full, Some workload, [] ->
    single ~workload ~seed:!seed
      ~seconds:(Option.value !seconds ~default:(float_of_int Spec.run_seconds))
      ~trace:!trace
  | `Full, None, [] ->
    full ~seconds:(Option.value !seconds ~default:6.0) ~held_out:!held_out ~snapshot:!snapshot
  | _ ->
    prerr_endline "suite: conflicting arguments (see --help)";
    exit 2
