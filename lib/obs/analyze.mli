(** Offline analysis of exported JSONL traces.

    The parser is the exact inverse of {!Export.jsonl}: it reads the flat
    one-object-per-line format (including the window-1 seq-as-bool
    rendering and the optional [tr]/[sp]/[pa] causal fields) back into
    typed {!Event.t} values, and the reports built on top — latency
    percentiles through the shared log-scale histograms, per-node-pair
    retransmit/BUSY/goodput accounting, and causal-tree reconstruction —
    are shared by the [soda_trace] CLI, the benchmarks and the tests. *)

exception Parse_error of string

(** {1 Parsing} *)

(** Parse a whole JSONL document; blank lines are skipped. Errors are
    re-raised with a ["line N:"] prefix. *)
val events_of_string : string -> Event.t list

val events_of_channel : in_channel -> Event.t list

(** {1 Latency} *)

(** Closed request spans ({!Span.of_events}) folded into a fresh
    log-scale histogram, so offline percentiles match the in-memory
    {!Metrics} error bounds. *)
val latency_histogram : Event.t list -> Metrics.Histogram.t

(** {1 Per-pair accounting} *)

type pair_stats = {
  p_src : int;
  p_dst : int;
  mutable tx_pkts : int;
  mutable tx_bytes : int;
  mutable rx_pkts : int;
  mutable rx_bytes : int;
  mutable retransmits : int;
  mutable busy_nacks : int;
}

(** Directional (src → dst) accounting, sorted by pair. Tx is charged at
    the sender and Rx credited at the receiver, so the ratio is the
    pair's goodput; BUSY nacks count against the direction the nacked
    REQUEST travelled. *)
val pair_accounting : Event.t list -> pair_stats list

(** {1 Causal trees} *)

type span_node = {
  sn_trace : int;
  sn_span : int;
  sn_parent : int;  (** [Causal.no_parent] for roots. *)
  mutable sn_mids : int list;  (** Ascending, deduped. *)
  mutable sn_first_us : int;
  mutable sn_last_us : int;
  mutable sn_events : int;
  mutable sn_label : string;
  mutable sn_label_rank : int;
  mutable sn_children : span_node list;  (** Ascending span id. *)
}

type tree = {
  t_trace : int;
  t_roots : span_node list;
      (** More than one only when a parent span emitted no events (its
          orphaned children are promoted to roots). *)
  t_spans : int;
  t_mids : int list;  (** Every node the tree touches; ascending. *)
  t_first_us : int;
  t_last_us : int;
}

(** Group ctx-stamped events by trace id and rebuild the span forest,
    sorted by trace id. Events without a context are ignored. *)
val causal_trees : Event.t list -> tree list

(** A tree that touches more than one node. *)
val cross_node : tree -> bool

(** The root-to-leaf chain bounding the tree's end-to-end time: from
    each span, descend into the child that finished last. *)
val critical_path : tree -> span_node list

(** {1 Rendering} *)

(** Graphviz DOT rendering of the causal forest, one cluster per trace. *)
val dot : tree list -> string

(** Full text report: summary, request latency percentiles and phase
    breakdown, per-pair accounting, causal-tree statistics and the
    critical paths of the [max_paths] (default 5) slowest trees. *)
val report : ?max_paths:int -> Format.formatter -> Event.t list -> unit
