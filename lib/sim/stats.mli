(** Named counters and accumulators for simulation measurements.

    A [Stats.t] is a bag of named integer counters (packet counts, retries)
    and named microsecond accumulators (time attributed to a protocol
    category, as in the paper's "Breakdown of Communications Overhead"
    table), plus latency series with mean/percentile summaries. Backed by
    a {!Soda_obs.Metrics} registry; series are log-scale histograms, so
    percentiles above 64 us carry ≤ ~3% relative bucketing error and
    memory stays constant regardless of sample count. *)

type t

val create : unit -> t

(** The backing metrics registry (counters and sample histograms). *)
val registry : t -> Soda_obs.Metrics.t

(** Counters. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val counter : t -> string -> int

(** Backing cells for hot paths: fetch once, bump the ref/histogram
    directly, skipping the per-call string hash + table probe. A cell
    stays attached for the life of its [Stats.t]. *)

val counter_cell : t -> string -> int ref
val time_ref : t -> string -> int ref
val histogram_cell : t -> string -> Soda_obs.Metrics.histogram

(** Slots: a name bound once, its cell resolved at the first bump or
    sample. A slot that is never used adds nothing to the bag, so it
    exports exactly what the string-keyed call would have. *)

type counter_slot

val counter_slot : t -> string -> counter_slot

(** [bump s] is [incr t name]. *)
val bump : counter_slot -> unit

type sample_slot

val sample_slot : t -> string -> sample_slot

(** [observe s v] is [sample t name v]. *)
val observe : sample_slot -> int -> unit

type time_slot

val time_slot : t -> string -> time_slot

(** [charge s us] is [add_time t name us]. *)
val charge : time_slot -> int -> unit

(** Microsecond accumulators, reported in milliseconds. *)

val add_time : t -> string -> int -> unit
val time_us : t -> string -> int
val time_ms : t -> string -> float

(** Latency samples (microseconds). *)

val sample : t -> string -> int -> unit
val histogram : t -> string -> Soda_obs.Metrics.histogram option
val count : t -> string -> int
val mean_us : t -> string -> float
val max_us : t -> string -> int

(** Nearest-rank percentile; [p] is clamped to [0, 100], [p <= 0] returns
    the minimum sample, [p >= 100] the maximum, empty series 0. *)
val percentile_us : t -> string -> float -> int

(** All counter names currently present, sorted. *)
val counter_names : t -> string list

val pp : Format.formatter -> t -> unit
