(* What the benchmark measures, in one place: BENCHMARK.json at the root
   of the repository is this module printed by [suite.exe --spec], and the
   full and smoke runs fail when the two differ. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (** end-to-end only: the share of the baseline median by which the
          metric may worsen before a change counts as a regression *)
}

let command = [ "sh"; "sodabench/run.sh" ]
let paths = [ "sodabench" ]

(* Seconds one run measures for (BENCHMARK.json's run_seconds). The full
   suite's default is shorter, so that all six workloads, traced and
   untraced, fit in about two minutes. *)
let run_seconds = 12

let e2e name unit_ better bound = { name; unit_; better; bound }
let layer name unit_ better = { name; unit_; better; bound = 0.0 }

(* Each bound is at least three times the widest spread (q3 - q1 over the
   median) measured over ten seeds on any workload, but one. Latencies,
   goodput and frames are virtual time and counts, exact per seed, so
   their spread is only seed to seed: store_quorum's loss and crash timing
   and scd_snapshot's tail vary most. ops_per_wall_s follows the shared
   machine's slow phases, which can last minutes; its spread reached 14%,
   so its bound is as wide as it can be while setup_s, the noisiest,
   keeps the widest. *)
let end_to_end =
  [
    e2e "op_p50_ms" "ms" Lower 0.1;
    e2e "op_p99_ms" "ms" Lower 0.15;
    e2e "goodput_ops_s" "ops/s" Higher 0.1;
    e2e "frames_per_op" "frames/op" Lower 0.15;
    e2e "ops_per_wall_s" "ops/s" Higher 0.24;
    e2e "alloc_words_per_op" "words/op" Lower 0.1;
    e2e "live_heap_mib" "MiB" Lower 0.2;
    e2e "setup_s" "s" Lower 0.25;
  ]

let per_layer =
  [
    layer "sim.events_per_op" "events/op" Lower;
    layer "sim.cancelled_per_op" "events/op" Lower;
    layer "sim.heap_highwater" "events" Lower;
    layer "sim.callbacks_per_op.proto" "callbacks/op" Lower;
    layer "sim.callbacks_per_op.bus" "callbacks/op" Lower;
    layer "sim.callbacks_per_op.kernel" "callbacks/op" Lower;
    layer "sim.callbacks_per_op.client" "callbacks/op" Lower;
    layer "net.bus.utilization" "ratio" Lower;
    layer "net.bus.queueing_p50_us" "us" Lower;
    layer "net.bus.queueing_p99_us" "us" Lower;
    layer "net.bus.bytes_per_op" "bytes/op" Lower;
    layer "net.bus.dropped_per_op" "frames/op" Lower;
    layer "net.pool.reuse_ratio" "ratio" Higher;
    layer "proto.pkts_per_op" "packets/op" Lower;
    layer "proto.retx_timer_ratio" "ratio" Lower;
    layer "proto.busy_nacks_per_op" "nacks/op" Lower;
    layer "proto.standalone_acks_per_op" "packets/op" Lower;
    layer "proto.duplicates_per_op" "packets/op" Lower;
    layer "proto.wire.encode_ns" "ns" Lower;
    layer "proto.wire.decode_ns" "ns" Lower;
    layer "kernel.conn_timer_ms_per_op" "ms/op" Lower;
    layer "kernel.retrans_timer_ms_per_op" "ms/op" Lower;
    layer "kernel.context_switch_ms_per_op" "ms/op" Lower;
    layer "kernel.transmission_ms_per_op" "ms/op" Lower;
    layer "kernel.client_overhead_ms_per_op" "ms/op" Lower;
    layer "kernel.protocol_ms_per_op" "ms/op" Lower;
    layer "kernel.request_call_us" "us" Lower;
    layer "kernel.accept_call_us" "us" Lower;
    layer "kernel.shed_ratio" "ratio" Lower;
    layer "runtime.request_call_us" "us" Lower;
    layer "runtime.accept_call_us" "us" Lower;
    layer "obs.span.queued_ms_per_op" "ms/op" Lower;
    layer "obs.span.on_wire_ms_per_op" "ms/op" Lower;
    layer "obs.span.busy_backoff_ms_per_op" "ms/op" Lower;
    layer "obs.span.awaiting_accept_ms_per_op" "ms/op" Lower;
    layer "obs.span.accept_transfer_ms_per_op" "ms/op" Lower;
    layer "obs.events_per_op" "events/op" Lower;
    layer "obs.trace_overhead" "ratio" Lower;
    layer "store.rounds_per_op" "rounds/op" Lower;
    layer "store.retries_per_op" "rounds/op" Lower;
    layer "store.read_p50_ms" "ms" Lower;
    layer "store.read_p99_ms" "ms" Lower;
    layer "store.write_p50_ms" "ms" Lower;
    layer "store.write_p99_ms" "ms" Lower;
    layer "scd.forwards_per_op" "frames/op" Lower;
    layer "scd.broadcasts_per_op" "msgs/op" Lower;
    layer "scd.retry_frames_per_op" "frames/op" Lower;
    layer "scd.set_size_mean" "msgs" Higher;
    layer "scd.recollects_per_op" "rounds/op" Lower;
    layer "scd.failovers" "count" Lower;
  ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"

let to_json () =
  let open Json in
  let metric ~bounded m =
    Obj
      ([ ("name", Str m.name); ("unit", Str m.unit_); ("better", Str (better_name m.better)) ]
      @ if bounded then [ ("bound", Num m.bound) ] else [])
  in
  Obj
    [
      ("command", Arr (List.map (fun s -> Str s) command));
      ("paths", Arr (List.map (fun s -> Str s) paths));
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr
          (List.map
             (fun (w : Loads.t) -> Obj [ ("name", Str w.name); ("why", Str w.why) ])
             Loads.all) );
      ("end_to_end", Arr (List.map (metric ~bounded:true) end_to_end));
      ("per_layer", Arr (List.map (metric ~bounded:false) per_layer));
    ]

(* One line per workload and per metric, so a diff of BENCHMARK.json
   reads like a diff of this module. *)
let render () =
  match to_json () with
  | Json.Obj fields ->
    let field (k, v) =
      let value =
        match v with
        | Json.Arr items when List.exists (function Json.Obj _ -> true | _ -> false) items ->
          "[\n" ^ String.concat ",\n" (List.map (fun i -> "    " ^ Json.to_string i) items) ^ "\n  ]"
        | v -> Json.to_string v
      in
      "  \"" ^ k ^ "\": " ^ value
    in
    "{\n" ^ String.concat ",\n" (List.map field fields) ^ "\n}\n"
  | _ -> assert false
