(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (chapter 5), paper value vs measured, plus the ablations
   called out in DESIGN.md, and finally a small Bechamel wall-clock suite
   (one Test.make per reproduced table).

   Run: dune exec bench/main.exe            (all sections)
        dune exec bench/main.exe T1 A3      (selected sections) *)

module Cost = Soda_base.Cost_model
module W = Workloads
module P = Paper_tables

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---- T1: "SODA Performance" -------------------------------------------------- *)

let t1_variant ~label ~cost ~op ~paper_ms ~paper_packets =
  Printf.printf "\n  Milliseconds per %s (%s)  —  paper: %.0f packets per op\n"
    (W.op_name op) label paper_packets;
  Printf.printf "    %6s  %10s  %10s  %9s\n" "words" "paper ms" "ours ms" "pkts/op";
  List.iter2
    (fun words paper ->
      let r = W.stream ~cost ~op ~words () in
      Printf.printf "    %6d  %10.0f  %10.1f  %9.2f\n" words paper r.W.per_op_ms
        r.W.packets_per_op)
    P.word_sizes paper_ms

let t1 () =
  hr "T1. SODA Performance (paper table, §5.5)";
  let np = Cost.non_pipelined and p = Cost.default in
  t1_variant ~label:"non-pipelined" ~cost:np ~op:W.Put ~paper_ms:P.put_non_pipelined
    ~paper_packets:(P.packets_per_op (`Put, `Non_pipelined));
  t1_variant ~label:"pipelined" ~cost:p ~op:W.Put ~paper_ms:P.put_pipelined
    ~paper_packets:(P.packets_per_op (`Put, `Pipelined));
  t1_variant ~label:"non-pipelined" ~cost:np ~op:W.Get ~paper_ms:P.get_non_pipelined
    ~paper_packets:(P.packets_per_op (`Get, `Non_pipelined));
  t1_variant ~label:"pipelined" ~cost:p ~op:W.Get ~paper_ms:P.get_pipelined
    ~paper_packets:(P.packets_per_op (`Get, `Pipelined));
  t1_variant ~label:"non-pipelined" ~cost:np ~op:W.Exchange
    ~paper_ms:P.exchange_non_pipelined
    ~paper_packets:(P.packets_per_op (`Exchange, `Non_pipelined));
  t1_variant ~label:"pipelined" ~cost:p ~op:W.Exchange ~paper_ms:P.exchange_pipelined
    ~paper_packets:(P.packets_per_op (`Exchange, `Pipelined))

(* ---- T2: breakdown of communications overhead --------------------------------- *)

let t2 () =
  hr "T2. Breakdown of Communications Overhead (per SIGNAL, §5.5)";
  let r = W.stream ~op:W.Signal ~words:0 () in
  Printf.printf "  (steady-state SIGNAL stream, %d ops, %.2f packets per SIGNAL)\n\n"
    r.W.ops_measured r.W.packets_per_op;
  Printf.printf "    %-22s %10s %10s\n" "category" "paper ms" "ours ms";
  let total = ref 0.0 in
  List.iter
    (fun (category, ours) ->
      let label = Cost.label category in
      let paper = List.assoc label P.breakdown in
      total := !total +. ours;
      Printf.printf "    %-22s %10.1f %10.2f\n" label paper ours)
    r.W.breakdown_ms;
  Printf.printf "    %-22s %10.1f %10.2f\n" "total (accounted)" P.breakdown_total !total;
  Printf.printf "    %-22s %10s %10.2f\n" "elapsed per SIGNAL" "7.1" r.W.per_op_ms

(* ---- T2S: span-derived lifecycle breakdown --------------------------------------- *)

(* The same steady-state SIGNAL stream as T2, but the per-phase times come
   from request-lifecycle spans derived from the typed event stream rather
   than from accounting calls placed by hand in the protocol code. With
   MAXREQUESTS outstanding the phases of concurrent requests overlap, so
   the per-op phase total exceeds the wall-clock per-op elapsed time. *)
let t2s () =
  hr "T2S. Request-lifecycle span breakdown (steady-state SIGNAL stream)";
  let module Span = Soda_obs.Span in
  let module Recorder = Soda_obs.Recorder in
  let r = W.stream ~op:W.Signal ~words:0 ~trace:true () in
  let w0, w1 = r.W.warm_window in
  let spans =
    Span.of_events (Recorder.events r.W.recorder)
    |> List.filter (fun s ->
           s.Span.mid = 1 && s.Span.start_us >= w0
           && match s.Span.end_us with Some e -> e <= w1 | None -> false)
  in
  let ops = List.length spans in
  Printf.printf "  (%d spans inside the measured window, from %d typed events)\n\n" ops
    (Recorder.length r.W.recorder);
  Printf.printf "    %-18s %12s %9s\n" "phase" "ms per op" "share";
  let breakdown = Span.breakdown spans in
  let total_us = List.fold_left (fun acc (_, us) -> acc + us) 0 breakdown in
  List.iter
    (fun phase ->
      let us = try List.assoc phase breakdown with Not_found -> 0 in
      Printf.printf "    %-18s %12.2f %8.1f%%\n" (Span.phase_name phase)
        (float_of_int us /. float_of_int (max ops 1) /. 1000.0)
        (100.0 *. float_of_int us /. float_of_int (max total_us 1)))
    Span.all_phases;
  Printf.printf "    %-18s %12.2f\n" "span total"
    (float_of_int total_us /. float_of_int (max ops 1) /. 1000.0);
  Printf.printf
    "\n    wall-clock per SIGNAL: %.2f ms ours vs %.1f ms paper (phases of\n\
     \    concurrent requests overlap, so the span total exceeds it)\n"
    r.W.per_op_ms P.breakdown_total

(* ---- TRACE: Chrome trace_event exports of the T1 workloads ------------------------ *)

(* Bench artifacts (Chrome traces, BENCH_pr*.json records) land in
   _bench_out/ instead of the working directory; the directory is
   gitignored, so a run never rewrites the committed BENCH_pr*.json
   snapshots. *)
let bench_out file =
  let dir = "_bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

(* ---- Gated records ---------------------------------------------------------------- *)

module Json = Soda_obs.Json

(* A figure as the table prints it: rounded to [digits] decimals. *)
let fixed digits x =
  let k = 10.0 ** float_of_int digits in
  Json.Float (Float.round (x *. k) /. k)

let rounded x = Json.Int (Float.to_int (Float.round x))

(* A gate is its name in the record, its verdict and what it checks. *)
type gate = string * bool * string

(* Write [fields] and the gates' verdicts as one JSON object to
   _bench_out/[file], print every gate, and exit 1 if any failed. CI runs
   the gated sections on every push and uploads the records. *)
let report file fields (gates : gate list) =
  let path = bench_out file in
  let verdicts = List.map (fun (name, ok, _) -> (name, Json.Bool ok)) gates in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj (fields @ [ ("gates", Json.Obj verdicts) ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n    wrote %s\n" path;
  List.iter
    (fun (_, ok, what) ->
      Printf.printf "    %s: %s\n" (if ok then "gate OK" else "GATE FAILED") what)
    gates;
  if not (List.for_all (fun (_, ok, _) -> ok) gates) then exit 1

(* A tag's words or nanoseconds per fired callback. *)
let per_event (c : Soda_sim.Engine.tag_cost) total =
  float_of_int total /. float_of_int (max 1 c.fired)

(* The engine's profiling counters after a run, shared by PROFILE and
   SCALE. *)
let engine_fields engine ~virtual_us =
  let module Engine = Soda_sim.Engine in
  let fired = (Engine.counters engine).Engine.fired in
  let minor, promoted, major = Engine.gc_words engine in
  Json.
    [ ("fired", Int fired); ("virtual_us", Int virtual_us);
      ("wall_us", rounded (Engine.wall_seconds engine *. 1e6));
      ("events_per_sec", rounded (Engine.events_per_sec engine));
      ("heap_highwater", Int (Engine.heap_highwater engine)); ("gc_minor_words", rounded minor);
      ("gc_promoted_words", rounded promoted); ("gc_major_words", rounded major);
      ("gc_words_per_event", fixed 1 (if fired = 0 then 0.0 else minor /. float_of_int fired));
      ("tags", Obj (List.map (fun (tag, n) -> (tag, Int n)) (Engine.tag_counts engine)));
      ( "tag_costs",
        Obj
          (List.map
             (fun (c : Engine.tag_cost) ->
               ( c.tag,
                 Obj
                   [ ("fired", Int c.fired); ("words_per_event", fixed 1 (per_event c c.words));
                     ("ns_per_event", rounded (per_event c c.ns)) ] ))
             (Engine.tag_costs engine)) ) ]

(* Events/sec is a wall-clock ratio: zero means the clock did not advance. *)
let events_measured engines =
  ( "events_per_sec_measured",
    List.for_all (fun e -> Soda_sim.Engine.events_per_sec e > 0.0) engines,
    "events/sec measured at every size (the wall clock advanced)" )

let trace_section () =
  hr "TRACE. Chrome trace_event exports (PUT / GET / EXCHANGE, 100 words)";
  List.iter
    (fun (slug, op) ->
      let r = W.stream ~op ~words:100 ~n:12 ~warmup:3 ~trace:true () in
      let file = bench_out (Printf.sprintf "soda_trace_%s.json" slug) in
      let oc = open_out file in
      Soda_obs.Export.output_chrome oc (Soda_obs.Recorder.events r.W.recorder);
      close_out oc;
      Printf.printf "    %-10s %6d events -> %s\n" (W.op_name op)
        (Soda_obs.Recorder.length r.W.recorder)
        file)
    [ ("put", W.Put); ("get", W.Get); ("exchange", W.Exchange) ];
  Printf.printf "    load the files in Perfetto or about://tracing; one lane per node\n"

(* ---- T3: comparison with *MOD -------------------------------------------------- *)

let measure_starmod () =
  let engine = Soda_sim.Engine.create ~seed:99 () in
  let bus = Soda_net.Bus.create engine in
  let a = Soda_baseline.Starmod.create_node ~engine ~bus ~mid:0 () in
  let b = Soda_baseline.Starmod.create_node ~engine ~bus ~mid:1 () in
  Soda_baseline.Starmod.define_port b ~port:1 (fun _ -> Some (Bytes.create 2));
  Soda_baseline.Starmod.define_port b ~port:2 (fun _ -> None);
  ignore a;
  (* synchronous port calls, sequential *)
  let n = 25 and warmup = 5 in
  let t_warm = ref 0 and t_end = ref 0 in
  let rec sync_loop i =
    if i > n then t_end := Soda_sim.Engine.now engine
    else begin
      if i = warmup + 1 then t_warm := Soda_sim.Engine.now engine;
      Soda_baseline.Starmod.sync_call a ~dst:1 ~port:1 (Bytes.create 2)
        ~on_reply:(fun _ -> sync_loop (i + 1))
    end
  in
  sync_loop 1;
  ignore (Soda_sim.Engine.run ~until:10_000_000_000 engine);
  let sync_ms = float_of_int (!t_end - !t_warm) /. float_of_int (n - warmup) /. 1000.0 in
  (* asynchronous sends, sequential completion chain *)
  let t_warm = ref 0 and t_end = ref 0 in
  let rec async_loop i =
    if i > n then t_end := Soda_sim.Engine.now engine
    else begin
      if i = warmup + 1 then t_warm := Soda_sim.Engine.now engine;
      Soda_baseline.Starmod.async_send a ~dst:1 ~port:2 (Bytes.create 2)
        ~on_done:(fun () -> async_loop (i + 1))
    end
  in
  async_loop 1;
  ignore (Soda_sim.Engine.run ~until:20_000_000_000 engine);
  let async_ms = float_of_int (!t_end - !t_warm) /. float_of_int (n - warmup) /. 1000.0 in
  (sync_ms, async_ms)

let t3 () =
  hr "T3. SODA vs *MOD port calls (§5.5 comparison)";
  let b_handler = W.blocking_signal () in
  let b_queued = W.blocking_signal ~mode:W.Task_queue () in
  let nb_handler = W.stream ~op:W.Signal ~words:0 () in
  let nb_queued = W.stream ~op:W.Signal ~words:0 ~mode:W.Task_queue () in
  let sync_ms, async_ms = measure_starmod () in
  Printf.printf "    %-44s %10s %10s\n" "primitive" "paper ms" "ours ms";
  let row name paper ours = Printf.printf "    %-44s %10.1f %10.2f\n" name paper ours in
  row "B_SIGNAL, ACCEPT in handler" P.b_signal_handler_accept b_handler;
  row "B_SIGNAL, ACCEPT from task queue" P.b_signal_task_queue b_queued;
  row "*MOD synchronous remote port call" P.starmod_sync_port_call sync_ms;
  row "SIGNAL (non-blocking stream)" P.signal_non_blocking nb_handler.W.per_op_ms;
  row "SIGNAL (non-blocking, task queue)" P.signal_non_blocking_queued nb_queued.W.per_op_ms;
  row "*MOD asynchronous port call" P.starmod_async_port_call async_ms;
  Printf.printf "\n    speedups (paper -> ours): sync %.1fx -> %.1fx, async %.1fx -> %.1fx\n"
    (P.starmod_sync_port_call /. P.b_signal_handler_accept)
    (sync_ms /. b_handler)
    (P.starmod_async_port_call /. P.signal_non_blocking)
    (async_ms /. nb_handler.W.per_op_ms)

(* ---- F1: delta-t situations ------------------------------------------------------ *)

let f1 () =
  hr "F1. Typical Delta-t Situations (paper figure, §5.2.2)";
  Deltat_scenarios.run ()

(* ---- Ablations --------------------------------------------------------------------- *)

let a1 () =
  hr "A1. Ablation: acknowledgement piggybacking (delayed-ACK grace window)";
  Printf.printf "    %-26s %12s %10s\n" "configuration" "pkts/SIGNAL" "ms/SIGNAL";
  List.iter
    (fun (label, grace) ->
      let cost = { Cost.default with Cost.ack_grace_us = grace } in
      let r = W.stream ~cost ~op:W.Signal ~words:0 () in
      Printf.printf "    %-26s %12.2f %10.2f\n" label r.W.packets_per_op r.W.per_op_ms)
    [ ("no piggybacking (grace=0)", 0); ("default grace (2 ms)", 2000) ]

let a2 () =
  hr "A2. Ablation: MAXREQUESTS (paper: >1 all equal; =1 degrades to blocking)";
  Printf.printf "    %-14s %12s %12s\n" "MAXREQUESTS" "ms/SIGNAL" "pkts/SIGNAL";
  List.iter
    (fun m ->
      let cost = { Cost.default with Cost.maxrequests = m } in
      let r = W.stream ~cost ~op:W.Signal ~words:0 ~outstanding:m () in
      Printf.printf "    %-14d %12.2f %12.2f\n" m r.W.per_op_ms r.W.packets_per_op)
    [ 1; 2; 3; 4 ]

let a3 () =
  hr "A3. Ablation: packet-loss sweep (Delta-t reliability under fault injection)";
  Printf.printf "    %-10s %12s %14s %16s\n" "loss" "ms/PUT" "pkts/PUT" "retransmissions";
  List.iter
    (fun loss ->
      let r = W.stream ~op:W.Put ~words:100 ~loss ~n:60 ~warmup:10 () in
      Printf.printf "    %8.0f%% %12.2f %14.2f %16d\n" (loss *. 100.0) r.W.per_op_ms
        r.W.packets_per_op r.W.retransmissions)
    [ 0.0; 0.02; 0.05; 0.10 ]

let a4 () =
  hr "A4. Ablation: BUSY-retry backoff policy (§5.2.2 adaptive slowdown)";
  Printf.printf
    "    (EXCHANGE stream, 1000 words, non-pipelined: the handler stays busy\n\
     \     for a long data turnaround, so the retry policy matters)\n";
  Printf.printf "    %-24s %12s %14s %8s\n" "policy" "ms/EXCHANGE" "pkts/EXCHANGE" "busy";
  List.iter
    (fun (label, backoff) ->
      let cost = { Cost.non_pipelined with Cost.busy_retry_backoff = backoff } in
      let r = W.stream ~cost ~op:W.Exchange ~words:1000 () in
      Printf.printf "    %-24s %12.2f %14.2f %8d\n" label r.W.per_op_ms r.W.packets_per_op
        r.W.busy_nacks)
    [ ("fixed interval (x1.0)", 1.0); ("adaptive (x1.25)", 1.25); ("aggressive (x2.0)", 2.0) ]

let a5 () =
  hr "A5. Ablation: pattern table (ideal associative vs 256-slot of §5.4)";
  List.iter
    (fun (label, assoc) ->
      let cost = { Cost.default with Cost.associative_patterns = assoc } in
      let r = W.stream ~cost ~op:W.Signal ~words:0 () in
      Printf.printf "    %-26s %10.2f ms/SIGNAL (semantic difference only)\n" label
        r.W.per_op_ms)
    [ ("associative (§3.4)", true); ("256-slot overwrite (§5.4)", false) ]

let a6 () =
  hr "A6. Ablation: client-level multipacket streaming (§6.17.4 chunk size)";
  Printf.printf
    "    (20 KB block over Stream.send; raw 1 Mbit/s line rate is 125 KB/s)\n";
  Printf.printf "    %-12s %10s %14s\n" "chunk bytes" "total ms" "goodput KB/s";
  List.iter
    (fun chunk ->
      let module Pattern = Soda_base.Pattern in
      let module Network = Soda_core.Network in
      let module Sodal = Soda_runtime.Sodal in
      let module Stream = Soda_facilities.Stream in
      let patt = Pattern.well_known 0o644 in
      let net = Network.create ~seed:31 () in
      let k0 = Network.add_node net ~mid:0 in
      let k1 = Network.add_node net ~mid:1 in
      ignore (Sodal.attach k0 (Stream.sink ~pattern:patt ~on_block:(fun _ ~src:_ _ -> ()) ()));
      let elapsed = ref 0 in
      ignore
        (Sodal.attach k1
           {
             Sodal.default_spec with
             task =
               (fun env ->
                 let t0 = Sodal.now env in
                 (match
                    Stream.send env (Sodal.server ~mid:0 ~pattern:patt) ~chunk_bytes:chunk
                      (Bytes.create 20_480)
                  with
                  | Ok () -> elapsed := Sodal.now env - t0
                  | Error _ -> failwith "stream failed");
                 Sodal.serve env);
           });
      ignore (Network.run ~until:600_000_000 net);
      let ms = float_of_int !elapsed /. 1000.0 in
      Printf.printf "    %-12d %10.1f %14.1f\n" chunk ms (20_480.0 /. 1024.0 /. (ms /. 1000.0)))
    [ 256; 512; 1024; 2048; 4096 ]

(* ---- WINDOW: sliding-window sweep + regression gate --------------------------------- *)

(* Sweep the transport window W over the chunked STREAM workload and the
   steady-state SIGNAL stream, write _bench_out/BENCH_pr5.json,
   and enforce the two PR-5 regression gates:
     - the W=1 SIGNAL figure must not regress the seed's T2S wall-clock
       per SIGNAL (the window machinery must leave stop-and-wait alone);
     - W=8 stream goodput at zero loss must be >= 2x the W=1 figure
       (the window must actually pipeline the wire).
   CI runs this section on every push (see .github/workflows/ci.yml); a
   violated gate exits nonzero. *)

(* Seed figure: T2S "wall-clock per SIGNAL" of the stop-and-wait repo,
   measured in deterministic virtual time, so any drift is a real
   protocol change, not noise. The 5% headroom forgives accounting-level
   reshuffles (an extra stat sample shifting a context switch) without
   letting a serialisation bug through. *)
let seed_t2s_ms = 5.80
let t2s_tolerance = 1.05

let window_cost w =
  if w = 1 then Cost.default (* the exact seed configuration *)
  else { Cost.default with Cost.window = w; maxrequests = w + 1 }

(* 8 KB over Stream.send in 100-byte chunks: each chunk is a full
   REQUEST/ACCEPT transaction, so per-transaction latency dominates the
   line rate and the window has room to pipeline. *)
let window_stream_goodput ~window =
  let module Pattern = Soda_base.Pattern in
  let module Network = Soda_core.Network in
  let module Sodal = Soda_runtime.Sodal in
  let module Stream = Soda_facilities.Stream in
  let patt = Pattern.well_known 0o644 in
  let block = 8_192 and chunk = 100 in
  let net = Network.create ~seed:37 ~cost:(window_cost window) () in
  let k0 = Network.add_node net ~mid:0 in
  let k1 = Network.add_node net ~mid:1 in
  ignore
    (Sodal.attach k0 (Stream.sink ~pattern:patt ~on_block:(fun _ ~src:_ _ -> ()) ()));
  let elapsed = ref 0 in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let t0 = Sodal.now env in
             (match
                Stream.send env (Sodal.server ~mid:0 ~pattern:patt) ~chunk_bytes:chunk
                  (Bytes.create block)
              with
              | Ok () -> elapsed := Sodal.now env - t0
              | Error _ -> failwith "window stream failed");
             Sodal.serve env);
       });
  ignore (Network.run ~until:600_000_000 net);
  let ms = float_of_int !elapsed /. 1000.0 in
  (ms, float_of_int block /. 1024.0 /. (ms /. 1000.0))

let window_section () =
  hr "WINDOW. Sliding-window sweep (W in {1,2,4,8}): STREAM goodput + SIGNAL stream";
  Printf.printf "    %-8s %12s %14s %14s %12s\n" "window" "stream ms" "goodput KB/s"
    "ms/SIGNAL" "pkts/SIGNAL";
  let rows =
    List.map
      (fun w ->
        let stream_ms, goodput = window_stream_goodput ~window:w in
        let r =
          W.stream ~cost:(window_cost w) ~op:W.Signal ~words:0
            ~outstanding:(max 3 (w + 1)) ()
        in
        Printf.printf "    %-8d %12.1f %14.1f %14.2f %12.2f\n" w stream_ms goodput
          r.W.per_op_ms r.W.packets_per_op;
        (w, stream_ms, goodput, r.W.per_op_ms, r.W.packets_per_op))
      [ 1; 2; 4; 8 ]
  in
  let find w = List.find (fun (w', _, _, _, _) -> w' = w) rows in
  let _, _, goodput1, signal1, _ = find 1 in
  let _, _, goodput8, _, _ = find 8 in
  let row (w, stream_ms, goodput, signal_ms, pkts) =
    Json.(
      Obj
        [ ("window", Int w); ("stream_ms", fixed 1 stream_ms);
          ("stream_goodput_kbs", fixed 1 goodput); ("signal_ms_per_op", fixed 2 signal_ms);
          ("packets_per_signal", fixed 2 pkts) ])
  in
  report "BENCH_pr5.json"
    Json.[ ("seed_t2s_ms", fixed 2 seed_t2s_ms); ("window_sweep", Arr (List.map row rows)) ]
    [ ( "w1_t2s_no_regression",
        signal1 <= seed_t2s_ms *. t2s_tolerance,
        Printf.sprintf "W=1 SIGNAL %.2f ms/op within seed T2S %.2f ms (+%.0f%% cap)" signal1
          seed_t2s_ms ((t2s_tolerance -. 1.0) *. 100.0) );
      ( "w8_stream_2x",
        goodput8 >= 2.0 *. goodput1,
        Printf.sprintf "W=8 goodput %.1f KB/s >= 2x W=1 goodput %.1f KB/s" goodput8 goodput1 )
    ]

(* ---- INCAST: many-to-one convergence, static vs adaptive RTO ------------------------ *)

(* M clients pour pipelined SIGNALs onto one server at once. The bus
   serialises the burst, so every packet's RTT inflates roughly M-fold
   past the quiet-wire figure. A sender that reads that queueing delay as
   loss storms the medium with spurious retransmissions and, once they
   run out, completes healthy requests CRASHED.

   Both configurations carry the identical offered load (8 pipelined
   SIGNALs per client); only the transport differs:
     - static:   W=8, aimd off — PR-5 behaviour, fixed schedule;
     - adaptive: W=64, aimd on — 8-bit sequence space, cwnd + RTT floor.
   Goodput counts only SIGNALs that completed OK. Gates (CI fails the
   push if any breaks), over every seed and client count:
     - no SIGNAL fails, in either configuration;
     - adaptive goodput >= static goodput;
     - op p99 within [incast_p99_bound_ms];
     - adaptive retransmit ratio at 16 clients (seed 73) <= 15%.
   The ratio counts timer-expiry retransmissions only
   ("pkt.retransmissions.timer"): BUSY re-emissions are the handler's
   flow-control mechanism (unchanged since the seed) and say nothing
   about congestion, so mixing them in would mask what AIMD and the
   adaptive RTO actually control. *)

let incast_cost = function
  | `Static -> { Cost.default with Cost.window = 8; maxrequests = 9; aimd = false }
  | `Adaptive -> { Cost.default with Cost.window = 64; maxrequests = 65; aimd = true }

let incast_seeds = [ 73; 1073; 5 ]
let incast_clients = [ 8; 16; 64; 128; 256 ]
let incast_ops = 32

(* The medium carries at most 625 SIGNALs/s, one REQUEST + ACCEPT round
   per 1.6 ms. With 8 SIGNALs outstanding per client, a server that
   answers in fair FIFO order completes each in about clients x 8 x 1.6 ms
   (Little's law). The p99 bound allows 1.75 times that plus 100 ms of
   start-up. *)
let incast_p99_bound_ms clients = 100.0 +. (1.75 *. float_of_int (clients * 8) *. 1.6)

type incast_point = {
  goodput : float;  (* OK completions per second of virtual time *)
  failed : int;
  p50_ms : float;
  p99_ms : float;
  retx_ratio : float;
}

let incast_run ~seed ~clients ~ops mode =
  let module Pattern = Soda_base.Pattern in
  let module Network = Soda_core.Network in
  let module Kernel = Soda_core.Kernel in
  let module Sodal = Soda_runtime.Sodal in
  let module Metrics = Soda_obs.Metrics in
  let module Histogram = Metrics.Histogram in
  let patt = Pattern.well_known 0o655 in
  let net = Network.create ~seed ~cost:(incast_cost mode) () in
  let server = Network.add_node net ~mid:0 in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let total = clients * ops in
  let done_count = ref 0 and ok_count = ref 0 and finished_at = ref 0 in
  let latency = Histogram.create () in
  let kernels = ref [ server ] in
  for c = 1 to clients do
    let k = Network.add_node net ~mid:c in
    kernels := k :: !kernels;
    ignore
      (Sodal.attach k
         {
           Sodal.default_spec with
           task =
             (fun env ->
               let sv = Sodal.server ~mid:0 ~pattern:patt in
               let pending = ref 0 in
               for _ = 1 to ops do
                 while !pending >= 8 do
                   Sodal.idle env
                 done;
                 let start = Sodal.now env in
                 let tid = Sodal.signal env sv ~arg:0 in
                 incr pending;
                 Sodal.on_completion_of env tid (fun c ->
                     decr pending;
                     incr done_count;
                     if c.Sodal.status = Sodal.Comp_ok then begin
                       incr ok_count;
                       Histogram.observe latency (Sodal.now env - start)
                     end;
                     if !done_count = total then finished_at := Sodal.now env)
               done;
               while !pending > 0 do
                 Sodal.idle env
               done;
               Sodal.serve env);
         })
  done;
  ignore (Network.run ~until:600_000_000 net);
  if !done_count < total then failwith "incast run did not complete";
  let sum key =
    List.fold_left (fun n k -> n + Metrics.counter (Kernel.stats k) key) 0 !kernels
  in
  let ms p = float_of_int (Histogram.percentile latency p) /. 1000.0 in
  {
    goodput = float_of_int !ok_count /. (float_of_int !finished_at /. 1e6);
    failed = total - !ok_count;
    p50_ms = ms 50.0;
    p99_ms = ms 99.0;
    retx_ratio =
      float_of_int (sum "pkt.retransmissions.timer")
      /. float_of_int (max 1 (sum "pkt.sent.total"));
  }

let incast_section () =
  hr "INCAST. Many-to-one SIGNAL burst: static (W=8) vs adaptive (W=64 + AIMD)";
  Printf.printf "  %d SIGNALs per client; goodput counts OK completions only\n" incast_ops;
  let rows =
    List.concat_map
      (fun seed ->
        Printf.printf "\n  seed %d\n    %-7s %-33s %-33s %9s\n" seed "clients"
          "static ops/s fail p50/p99 ms" "adaptive ops/s fail p50/p99 ms" "p99 bound";
        List.map
          (fun clients ->
            let s = incast_run ~seed ~clients ~ops:incast_ops `Static in
            let a = incast_run ~seed ~clients ~ops:incast_ops `Adaptive in
            let cell r =
              Printf.sprintf "%7.1f %5d %8.1f/%-8.1f" r.goodput r.failed r.p50_ms r.p99_ms
            in
            Printf.printf "    %-7d %-33s %-33s %9.0f\n" clients (cell s) (cell a)
              (incast_p99_bound_ms clients);
            (seed, clients, s, a))
          incast_clients)
      incast_seeds
  in
  let all f = List.for_all f rows in
  let _, _, _, adaptive16 =
    List.find (fun (seed, c, _, _) -> seed = 73 && c = 16) rows
  in
  Printf.printf "\n  adaptive timer-retransmit ratio at 16 clients, seed 73: %.1f%%\n"
    (100.0 *. adaptive16.retx_ratio);
  let point r =
    Json.(
      Obj
        [ ("goodput_ops_s", fixed 1 r.goodput); ("failed", Int r.failed);
          ("op_p50_ms", fixed 1 r.p50_ms); ("op_p99_ms", fixed 1 r.p99_ms);
          ("retx_timer_ratio", fixed 4 r.retx_ratio) ])
  in
  let row (seed, clients, s, a) =
    Json.(
      Obj
        [ ("seed", Int seed); ("clients", Int clients);
          ("op_p99_bound_ms", rounded (incast_p99_bound_ms clients)); ("static", point s);
          ("adaptive", point a) ])
  in
  report "BENCH_pr10.json"
    Json.[ ("ops_per_client", Int incast_ops); ("incast", Arr (List.map row rows)) ]
    [ ( "no_failed_signals",
        all (fun (_, _, s, a) -> s.failed = 0 && a.failed = 0),
        "no SIGNAL fails in either configuration at any point" );
      ( "adaptive_goodput_ge_static",
        all (fun (_, _, s, a) -> a.goodput >= s.goodput),
        "adaptive goodput >= static goodput at every point" );
      ( "op_p99_within_bound",
        all (fun (_, clients, s, a) ->
            Float.max s.p99_ms a.p99_ms <= incast_p99_bound_ms clients),
        "op p99 within its bound (last column) at every point" );
      ( "n16_retx_timer_ratio",
        adaptive16.retx_ratio <= 0.15,
        Printf.sprintf "adaptive timer-retransmit ratio at 16 clients %.1f%% (at most 15%%)"
          (100.0 *. adaptive16.retx_ratio) ) ]

(* ---- STORE: quorum-replicated KV store --------------------------------------------- *)

(* Read/write latency percentiles and quorum-round traffic of lib/store
   under its deterministic workload harness, for n in {3, 5} replicas:
   healthy medium, 2% frame loss, and one replica down for the whole
   run. Packet counts isolate the workload by subtracting an ops=0
   baseline run of the identical topology and schedule. *)
let store_section () =
  hr "STORE. Quorum-replicated KV store (lib/store): latency and quorum traffic";
  let module Harness = Soda_store.Harness in
  let module Metrics = Soda_obs.Metrics in
  let module Recorder = Soda_obs.Recorder in
  let module Network = Soda_core.Network in
  let module FP = Soda_fault.Fault_plan in
  let frames net = Metrics.counter (Soda_net.Bus.stats (Network.bus net)) "bus.frames_sent" in
  let clients = 2 and ops = 30 in
  List.iter
    (fun n ->
      Printf.printf
        "\n  n=%d replicas (quorum %d), %d clients x %d ops, think<=30 ms\n" n
        ((n / 2) + 1) clients ops;
      Printf.printf "    %-18s %6s  %-17s %-17s %8s %9s %8s %9s\n" "configuration" "ok"
        "read p50/p95/p99" "write p50/p95/p99" "pkts/op" "rounds/op" "retries" "hedged/op";
      List.iter
        (fun (label, loss, plan) ->
          let run ops =
            Harness.run ~n ~clients ~ops ~keys:4 ~seed:77 ~loss ~think_us:30_000 ?plan ()
          in
          let base = run 0 in
          let r = run ops in
          let m = Recorder.metrics (Network.recorder r.Harness.net) in
          let total = List.length r.Harness.history in
          let ok =
            List.length
              (List.filter (fun (o : Harness.op) -> o.outcome <> `No_quorum)
                 r.Harness.history)
          in
          let pct name =
            match Metrics.histogram m name with
            | Some h ->
              Printf.sprintf "%.1f/%.1f/%.1f"
                (float_of_int (Metrics.Histogram.percentile h 50.0) /. 1000.0)
                (float_of_int (Metrics.Histogram.percentile h 95.0) /. 1000.0)
                (float_of_int (Metrics.Histogram.percentile h 99.0) /. 1000.0)
            | None -> "-"
          in
          let per_op c = float_of_int c /. float_of_int (max total 1) in
          Printf.printf "    %-18s %3d/%2d  %-17s %-17s %8.1f %9.2f %8d %9.2f\n" label ok
            total (pct "store.read.us") (pct "store.write.us")
            (per_op (frames r.Harness.net - frames base.Harness.net))
            (per_op (Metrics.counter m "store.rounds"))
            (Metrics.counter m "store.retries")
            (per_op (Metrics.counter m "store.hedged")))
        [
          ("healthy", 0.0, None);
          ("2% loss", 0.02, None);
          ("one replica down", 0.0, Some [ { FP.at_us = 0; action = FP.Crash (n - 1) } ]);
        ])
    [ 3; 5 ]

(* ---- SCD: set-constrained delivery broadcast --------------------------------------- *)

(* Message complexity and operation throughput of the lib/scd SCD-broadcast
   subsystem (docs/BROADCAST.md) for n in {8, 64, 256} members: open-loop
   clients drive the snapshot object and counter. Every member echoes
   each application message once to each of its n-1 peers, so a healthy
   run sends exactly n(n-1) FORWARD messages per scd-broadcast; a
   transfer carries a member's whole backlog for one peer (up to the
   kernel's buffer) and brings back the peer's backlog for it, so bus
   frames per operation are far fewer.
   Writes a machine-readable _bench_out/BENCH_pr8.json.

   Regression gates (CI runs this section on every push), all on virtual
   time, hence exact per seed:
   - the n=8 and n=64 rows spend exactly n(n-1) FORWARD messages per
     broadcast (a duplicated, leaked or retried FORWARD breaks it), and
     no request at n=64 completes CRASHED on a "not alive" probe reply
     (no member crashes, so every such verdict is false);
   - at n=64, bus frames per operation and operations per second stay
     within [scd_margin] of the figures measured when the pump went to
     a completion clock with EXCHANGE pairing: 6,603 frames/op and
     0.435 ops/s at seed 88, against 10,841 and 0.152 with the n x 4 ms
     launch pacer;
   - the n=256 row (2 clients x 2 ops) completes every operation. Its
     FORWARDs per broadcast are reported, not gated: a few transfers
     there still draw crash verdicts and are retried.
   The safety checkers also run on every row; a violation fails the
   section outright, as does any failed client operation. *)

let scd_margin = 0.10
let scd_n64_frames_per_op = 6_603.0
let scd_n64_ops_per_sec = 0.435

type scd_row = {
  n : int;
  completed : int;
  broadcasts : int;
  forwards : int;
  bus_frames : int;
  probe_lost : int;
  ops_per_sec : float;
  lat_ms : float;
}

let scd_row ~n ~clients ~ops ~mean_interarrival_us =
  let module Harness = Soda_scd.Harness in
  let module Metrics = Soda_obs.Metrics in
  let module Recorder = Soda_obs.Recorder in
  let module Network = Soda_core.Network in
  let r = Harness.run ~n ~clients ~ops ~regs:4 ~seed:88 ~mean_interarrival_us () in
  (match Harness.check_delivery r with
   | Ok () -> ()
   | Error m -> Printf.printf "    SCD SAFETY VIOLATION (n=%d): %s\n" n m; exit 1);
  (match Harness.check_objects r with
   | Ok () -> ()
   | Error m -> Printf.printf "    SCD SAFETY VIOLATION (n=%d): %s\n" n m; exit 1);
  let m = Recorder.metrics (Network.recorder r.Harness.net) in
  let completed = List.length r.Harness.history in
  let span_us =
    List.fold_left
      (fun (lo, hi) (o : Harness.op) -> (min lo o.start_us, max hi o.end_us))
      (max_int, 0) r.Harness.history
    |> fun (lo, hi) -> max 1 (hi - lo)
  in
  let lat_sum, lat_n =
    List.fold_left
      (fun (s, k) (o : Harness.op) ->
        match o.outcome with
        | Harness.Failed -> (s, k)
        | _ -> (s + (o.end_us - o.start_us), k + 1))
      (0, 0) r.Harness.history
  in
  if lat_n < completed then begin
    Printf.printf "    SCD LIVENESS VIOLATION (n=%d): %d/%d client ops failed\n" n
      (completed - lat_n) completed;
    exit 1
  end;
  {
    n;
    completed;
    broadcasts = Metrics.counter m "scd.broadcasts";
    forwards = Metrics.counter m "scd.forwards";
    bus_frames = Metrics.counter (Soda_net.Bus.stats (Network.bus r.Harness.net)) "bus.frames_sent";
    probe_lost =
      List.fold_left
        (fun acc mid ->
          acc
          + Metrics.counter (Soda_core.Kernel.stats (Network.node r.Harness.net ~mid)) "probe.lost")
        0
        (List.init (n + clients) Fun.id);
    ops_per_sec = float_of_int completed /. (float_of_int span_us /. 1e6);
    lat_ms = float_of_int lat_sum /. float_of_int (max lat_n 1) /. 1000.0;
  }

let scd_section () =
  hr "SCD. Set-constrained delivery broadcast (lib/scd): O(n^2) messages, batched transfers";
  let bound n = n * (n - 1) in
  let per_op r c = float_of_int c /. float_of_int (max r.completed 1) in
  Printf.printf
    "    (open-loop clients on the snapshot object + counter; analytic cost\n\
    \     is n(n-1) FORWARD messages per scd-broadcast)\n\n";
  Printf.printf "    %-4s %5s %7s %9s %8s %7s %8s %11s %8s %9s\n" "n" "ops" "bcasts" "forwards"
    "fwd/bc" "n(n-1)" "fwd/op" "frames/op" "ops/sec" "lat ms";
  let rows =
    List.map
      (fun (n, clients, ops, mean) ->
        let r = scd_row ~n ~clients ~ops ~mean_interarrival_us:mean in
        Printf.printf "    %-4d %5d %7d %9d %8.1f %7d %8.0f %11.1f %8.3f %9.1f\n" n r.completed
          r.broadcasts r.forwards
          (float_of_int r.forwards /. float_of_int (max r.broadcasts 1))
          (bound n) (per_op r r.forwards) (per_op r r.bus_frames) r.ops_per_sec r.lat_ms;
        r)
      [ (8, 3, 8, 120_000); (64, 2, 5, 2_000_000); (256, 2, 2, 2_000_000) ]
  in
  let row n = List.find (fun r -> r.n = n) rows in
  let r64 = row 64 and r256 = row 256 in
  let frames64 = per_op r64 r64.bus_frames in
  let gates =
    [
      ( "quadratic_forwards",
        List.for_all (fun r -> r.n > 64 || r.forwards = r.broadcasts * bound r.n) rows,
        "n=8 and n=64 spend exactly n(n-1) FORWARD messages per broadcast" );
      ( "n64_no_false_probe_verdicts",
        r64.probe_lost = 0,
        Printf.sprintf "n=64 requests completed CRASHED by a \"not alive\" probe: %d"
          r64.probe_lost );
      ( "n64_frames_per_op",
        frames64 <= scd_n64_frames_per_op *. (1.0 +. scd_margin),
        Printf.sprintf "n=64 bus frames/op %.1f (at most %.1f)" frames64
          (scd_n64_frames_per_op *. (1.0 +. scd_margin)) );
      ( "n64_ops_per_sec",
        r64.ops_per_sec >= scd_n64_ops_per_sec *. (1.0 -. scd_margin),
        Printf.sprintf "n=64 ops/sec %.3f (at least %.3f)" r64.ops_per_sec
          (scd_n64_ops_per_sec *. (1.0 -. scd_margin)) );
      ( "n256_completes",
        r256.completed = 4,
        Printf.sprintf "n=256 completed %d of 4 operations" r256.completed );
    ]
  in
  let record r =
    Json.(
      Obj
        [ ("n", Int r.n); ("client_ops", Int r.completed); ("broadcasts", Int r.broadcasts);
          ("forwards", Int r.forwards); ("bound", Int (bound r.n));
          ("forwards_per_op", fixed 1 (per_op r r.forwards));
          ("frames_per_op", fixed 1 (per_op r r.bus_frames));
          ("goodput_ops_s", fixed 3 r.ops_per_sec); ("mean_latency_ms", fixed 1 r.lat_ms) ])
  in
  report "BENCH_pr8.json"
    Json.
      [ ("analytic_forwards_per_broadcast", Str "n*(n-1)"); ("margin", fixed 2 scd_margin);
        ( "n64_baseline",
          Obj
            [ ("frames_per_op", fixed 1 scd_n64_frames_per_op);
              ("goodput_ops_s", fixed 3 scd_n64_ops_per_sec) ] );
        ("scd", Arr (List.map record rows)) ]
    gates

(* ---- PROFILE: engine hot-path profiling --------------------------------------------- *)

(* N-node SIGNAL ring: every node advertises the well-known pattern and
   fires [ops] blocking SIGNALs at its successor while serving its own
   predecessor, so all N streams run concurrently and the engine's event
   rate and heap depth scale with N. Reports the engine's always-on
   profiling counters (wall-clock events/sec, heap high-water, callbacks
   by source tag) plus the opt-in GC allocation deltas, and writes the
   machine-readable _bench_out/BENCH_pr6.json. *)

let profile_ring ~nodes ~ops =
  let module Pattern = Soda_base.Pattern in
  let module Network = Soda_core.Network in
  let module Sodal = Soda_runtime.Sodal in
  let module Engine = Soda_sim.Engine in
  let patt = Pattern.well_known 0o640 in
  let net = Network.create ~seed:53 () in
  let engine = Network.engine net in
  Engine.set_profile_gc engine true;
  let finished = ref 0 in
  let spec ~next =
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
      task =
        (fun env ->
          (* let the whole ring advertise before the first SIGNAL *)
          Sodal.compute env 20_000;
          let sv = Sodal.server ~mid:next ~pattern:patt in
          for _ = 1 to ops do
            let c = Sodal.b_signal env sv ~arg:0 in
            if c.Sodal.status <> Sodal.Comp_ok then failwith "profile ring SIGNAL failed"
          done;
          incr finished;
          Sodal.serve env);
    }
  in
  let kernels = List.init nodes (fun mid -> Network.add_node net ~mid) in
  List.iteri
    (fun mid kernel -> ignore (Sodal.attach kernel (spec ~next:((mid + 1) mod nodes))))
    kernels;
  let virtual_us = Network.run ~until:3_600_000_000 net in
  if !finished < nodes then
    failwith (Printf.sprintf "profile ring n=%d: %d/%d nodes finished" nodes !finished nodes);
  (engine, virtual_us)

let profile_section () =
  hr "PROFILE. Engine hot-path profiling (N-node SIGNAL ring)";
  let module Engine = Soda_sim.Engine in
  let ops = 40 in
  let rows =
    List.map
      (fun nodes ->
        let engine, virtual_us = profile_ring ~nodes ~ops in
        (nodes, engine, virtual_us))
      [ 8; 64 ]
  in
  Printf.printf "    %-6s %10s %12s %12s %10s %14s\n" "nodes" "fired" "wall ms"
    "events/sec" "heap hw" "minor words";
  List.iter
    (fun (nodes, engine, _) ->
      let c = Engine.counters engine in
      let minor, _, _ = Engine.gc_words engine in
      Printf.printf "    %-6d %10d %12.1f %12.0f %10d %14.0f\n" nodes c.Engine.fired
        (Engine.wall_seconds engine *. 1e3)
        (Engine.events_per_sec engine)
        (Engine.heap_highwater engine) minor)
    rows;
  Printf.printf "\n    callbacks by source tag:\n";
  List.iter
    (fun (nodes, engine, _) ->
      Printf.printf "    n=%-4d %s\n" nodes
        (String.concat "  "
           (List.map
              (fun (tag, count) -> Printf.sprintf "%s=%d" tag count)
              (Engine.tag_counts engine))))
    rows;
  (* A callback's cost includes whatever it runs inline: a proto
     callback that completes a request runs the kernel completion and the
     Sodal continuation it resumes, and all of it is charged to proto. *)
  Printf.printf "\n    cost by source tag (callbacks fired, words and ns per callback):\n";
  List.iter
    (fun (nodes, engine, _) ->
      List.iter
        (fun (c : Engine.tag_cost) ->
          Printf.printf "    n=%-4d %-8s %10d %10.1f words %8.0f ns\n" nodes c.tag c.fired
            (per_event c c.words) (per_event c c.ns))
        (Engine.tag_costs engine))
    rows;
  let row (nodes, engine, virtual_us) =
    Json.Obj (("nodes", Json.Int nodes) :: engine_fields engine ~virtual_us)
  in
  report "BENCH_pr6.json"
    Json.[ ("signal_ring_ops_per_node", Int ops); ("profile", Arr (List.map row rows)) ]
    [ events_measured (List.map (fun (_, engine, _) -> engine) rows) ]

(* ---- SCALE: open-loop Zipf workload at thousands of nodes --------------------------- *)

(* Sustain N nodes under the open-loop generator (lib/core/openloop.ml)
   and report simulator throughput: wall-clock events/sec, simulated
   requests per simulated second, and GC words per event. The request
   count scales with N so big runs stay long enough to measure
   (N=4096 -> 1,048,576 root requests). Node counts come from
   SODA_SCALE_NODES (comma-separated; default "8,64" for CI — the
   512/4096 points run in the nightly). Results land in
   _bench_out/BENCH_pr7.json.

   Regression gates: events/sec must be measurable at every N, and when
   both 8 and 64 run, N=64 throughput must hold >= 65% of N=8 (the seed's
   list-based bus decayed super-linearly with station count; this pins
   the array/pool rework). *)

let scale_requests nodes = max 16384 (nodes * 256)

let scale_nodes () =
  match Sys.getenv_opt "SODA_SCALE_NODES" with
  | None | Some "" -> [ 8; 64 ]
  | Some spec ->
    List.map
      (fun field ->
        match int_of_string_opt (String.trim field) with
        | Some n when n >= 2 -> n
        | _ ->
          Printf.eprintf "bench: SODA_SCALE_NODES: bad node count %S\n" field;
          exit 2)
      (String.split_on_char ',' spec)

let scale_section () =
  hr "SCALE. Open-loop Zipf workload at N nodes (see docs/PERFORMANCE.md)";
  let module Engine = Soda_sim.Engine in
  let module Network = Soda_core.Network in
  let module O = Soda_core.Openloop in
  let module Pool = Soda_net.Pool in
  let module Bus = Soda_net.Bus in
  let nodes_list = scale_nodes () in
  let rows =
    List.map
      (fun nodes ->
        let requests = scale_requests nodes in
        let r = W.scale ~nodes ~requests () in
        if r.O.offered < requests then
          failwith
            (Printf.sprintf "scale n=%d: offered only %d/%d arrivals before the horizon"
               nodes r.O.offered requests);
        (nodes, requests, r))
      nodes_list
  in
  Printf.printf "    %-6s %9s %10s %9s %11s %9s %11s %9s %8s\n" "nodes" "requests"
    "fired" "wall ms" "events/sec" "virt s" "req/sim-s" "words/ev" "shed";
  List.iter
    (fun (nodes, requests, r) ->
      let engine = Network.engine r.O.net in
      let c = Engine.counters engine in
      let minor, _, _ = Engine.gc_words engine in
      let words_per_event =
        if c.Engine.fired = 0 then 0.0 else minor /. float_of_int c.Engine.fired
      in
      let req_per_sim_s =
        float_of_int r.O.completed /. (float_of_int r.O.virtual_us /. 1e6)
      in
      Printf.printf "    %-6d %9d %10d %9.1f %11.0f %9.1f %11.0f %9.1f %8d\n" nodes
        requests c.Engine.fired
        (Engine.wall_seconds engine *. 1e3)
        (Engine.events_per_sec engine)
        (float_of_int r.O.virtual_us /. 1e6)
        req_per_sim_s words_per_event r.O.shed)
    rows;
  Printf.printf "\n    completions and scatter-gather:\n";
  List.iter
    (fun (nodes, _, r) ->
      let pool = Bus.pool (Network.bus r.O.net) in
      Printf.printf
        "    n=%-5d issued=%d completed=%d failed=%d gathers=%d pool: %d/%d reused\n"
        nodes r.O.issued r.O.completed r.O.failed r.O.gathers (Pool.reuses pool)
        (Pool.acquires pool))
    rows;
  let baseline_pr6_n64 = 432088.0 in
  let ev_s nodes =
    List.find_map
      (fun (n, _, r) ->
        if n = nodes then Some (Engine.events_per_sec (Network.engine r.O.net)) else None)
      rows
  in
  let speedup =
    match ev_s 64 with
    | Some v64 -> [ ("n64_speedup_vs_pr6", fixed 2 (v64 /. baseline_pr6_n64)) ]
    | None -> []
  in
  let ratio_gate =
    match ev_s 8, ev_s 64 with
    | Some v8, Some v64 ->
      [ ( "n64_vs_n8_throughput",
          v64 >= 0.65 *. v8,
          Printf.sprintf "N=64 at %.0f%% of N=8 throughput (floor 65%%)" (100.0 *. v64 /. v8) )
      ]
    | _ -> []
  in
  let row (nodes, requests, r) =
    Json.Obj
      (List.map
         (fun (k, v) -> (k, Json.Int v))
         [ ("nodes", nodes); ("requests", requests); ("offered", r.O.offered);
           ("issued", r.O.issued); ("completed", r.O.completed); ("failed", r.O.failed);
           ("shed", r.O.shed); ("gathers", r.O.gathers) ]
      @ engine_fields (Network.engine r.O.net) ~virtual_us:r.O.virtual_us)
  in
  report "BENCH_pr7.json"
    ((("baseline_pr6_n64_events_per_sec", rounded baseline_pr6_n64) :: speedup)
     @ [ ("scale", Json.Arr (List.map row rows)) ])
    (events_measured (List.map (fun (_, _, r) -> Network.engine r.O.net) rows) :: ratio_gate)

(* ---- FAULT: a workload under a scripted fault plan ---------------------------------- *)

(* Run the T1 PUT stream while a fault plan (--fault-plan FILE) executes
   against the server node. Demonstrates the robustness scenarios outside
   the test suite; the plan must let the workload finish (heal partitions,
   reboot crashed nodes). *)
let fault_section plan () =
  hr "FAULT. PUT stream (100 words) under a scripted fault plan";
  Printf.printf "%s"
    (String.concat ""
       (List.map
          (fun step -> "    " ^ Soda_fault.Fault_plan.step_to_string step ^ "\n")
          plan));
  let r = W.stream ~op:W.Put ~words:100 ~fault_plan:plan () in
  Printf.printf
    "\n    %.2f ms/PUT, %.2f pkts/PUT, %d retransmissions, %d busy NACKs\n"
    r.W.per_op_ms r.W.packets_per_op r.W.retransmissions r.W.busy_nacks

(* ---- Bechamel wall-clock suite ----------------------------------------------------- *)

let bechamel () =
  hr "Bechamel wall-clock micro-benchmarks of the harness (one per table)";
  let open Bechamel in
  let open Toolkit in
  let t1_test =
    Test.make ~name:"T1.put-stream-100w"
      (Staged.stage (fun () -> ignore (W.stream ~op:W.Put ~words:100 ~n:12 ~warmup:3 ())))
  in
  let t2_test =
    Test.make ~name:"T2.signal-breakdown"
      (Staged.stage (fun () -> ignore (W.stream ~op:W.Signal ~words:0 ~n:12 ~warmup:3 ())))
  in
  let t3_test =
    Test.make ~name:"T3.blocking-signal"
      (Staged.stage (fun () -> ignore (W.blocking_signal ~n:10 ~warmup:2 ())))
  in
  let tests = [ t1_test; t2_test; t3_test ] in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        (Instance.monotonic_clock :> Measure.witness)
        raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
          Printf.printf "    %-24s %12.3f ms wall-clock per run\n" name (est /. 1e6)
        | _ -> Printf.printf "    %-24s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ---- driver -------------------------------------------------------------------------- *)

let sections =
  [
    ("T1", t1); ("T2", t2); ("T2S", t2s); ("T3", t3); ("F1", f1);
    ("TRACE", trace_section);
    ("A1", a1); ("A2", a2); ("A3", a3); ("A4", a4); ("A5", a5); ("A6", a6);
    ("WINDOW", window_section);
    ("INCAST", incast_section);
    ("PROFILE", profile_section);
    ("SCALE", scale_section);
    ("STORE", store_section);
    ("SCD", scd_section);
    ("BENCH", bechamel);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  (* "--fault-plan FILE" adds a FAULT section driven by the plan file; any
     remaining arguments select sections by name as before. *)
  let rec split_args requested plan = function
    | "--fault-plan" :: file :: rest -> split_args requested (Some file) rest
    | "--fault-plan" :: [] ->
      prerr_endline "bench: --fault-plan needs a FILE argument";
      exit 2
    | arg :: rest -> split_args (arg :: requested) plan rest
    | [] -> (List.rev requested, plan)
  in
  let requested, plan_file = split_args [] None argv in
  let fault =
    match plan_file with
    | None -> None
    | Some file ->
      (match Soda_fault.Fault_plan.load file with
       | Ok plan -> Some ("FAULT", fault_section plan)
       | Error message ->
         Printf.eprintf "bench: %s: %s\n" file message;
         exit 2)
  in
  let selected =
    match fault, requested with
    | Some section, [] -> [ section ]  (* just the fault run *)
    | Some section, _ ->
      List.filter (fun (name, _) -> List.mem name requested) sections @ [ section ]
    | None, [] -> sections
    | None, _ -> List.filter (fun (name, _) -> List.mem name requested) sections
  in
  Printf.printf "SODA reproduction benchmark harness (virtual-time measurements)\n";
  Printf.printf "paper: Kepecs & Solomon, SODA, 1984; see EXPERIMENTS.md\n";
  List.iter (fun (_, f) -> f ()) selected
