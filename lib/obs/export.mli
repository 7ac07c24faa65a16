(** Exporters for recorded event streams.

    Three formats: the human-readable timeline (one line per event,
    labelled by mid), JSONL (one object per event; used by the golden trace
    test), and Chrome [trace_event] JSON that loads in about://tracing or
    Perfetto with one process lane per node plus a bus-medium lane. *)

val pp_timeline : Format.formatter -> Event.t list -> unit

val jsonl : Event.t list -> string
val output_jsonl : out_channel -> Event.t list -> unit

val chrome : Event.t list -> string
val output_chrome : out_channel -> Event.t list -> unit

(** {2 Metrics registries}

    Machine-readable dump of a {!Metrics} registry: counters and gauges
    verbatim, histograms as their summary statistics
    ([count]/[sum]/[min]/[max]/[mean]/[p50]/[p90]/[p95]/[p99]). *)

val metrics_json : Metrics.t -> string

(** One top-level object with a member per named registry, e.g.
    [{"engine":{...},"bus":{...},"node.0":{...}}]. *)
val metrics_sections_json : (string * Metrics.t) list -> string
