(** Metrics registry: named counters, gauges and log-scale histograms.

    Every layer counts here: a node's packet and request counters, its
    §5.5 time categories (microsecond counters named [Cost.label c]),
    the bus's frame counts and medium time, SCD and the store.

    Histograms store exact unit buckets for values below 64 and 32
    sub-buckets per power-of-two octave above (≤ ~3% relative error on
    percentiles), with exact count/min/max and an exact total: [sum]
    reads it, saturating at [max_int] when it does not fit an int, and
    [mean] divides it, so min ≤ mean ≤ max. A histogram holds only
    the span of buckets its samples have reached (none before the first
    sample; at most 64 words for samples within one octave), not all
    1,856 and not O(samples). *)

type t
type histogram

val create : unit -> t

(** Counters (monotonic). *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val counter : t -> string -> int

(** [counter_cell t name] is the counter's backing cell (created at zero
    on first use): hot paths bump the ref directly instead of paying a
    string hash + table probe per increment. The registry never drops a
    cell, so one fetched at setup stays attached. *)
val counter_cell : t -> string -> int ref

(** Slots: a name bound once, its cell resolved at the first bump or
    sample. A slot that is never used adds nothing to the registry, so
    it exports exactly what the string-keyed call would have, and a
    histogram record exists only where something is sampled. *)

type counter_slot

val counter_slot : t -> string -> counter_slot

(** [bump s] is [incr t name]. *)
val bump : counter_slot -> unit

(** [bump_by s n] is [add t name n]. *)
val bump_by : counter_slot -> int -> unit

type histogram_slot

val histogram_slot : t -> string -> histogram_slot

(** [sample s v] is [observe t name v]. *)
val sample : histogram_slot -> int -> unit

(** Gauges (set to the latest value). *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int

(** Histograms. [observe] clamps negative values to 0. *)

val observe : t -> string -> int -> unit
val histogram : t -> string -> histogram option

(** The histogram's backing cell (created empty on first use); same
    hot-path contract as {!counter_cell}. *)
val histogram_cell : t -> string -> histogram

module Histogram : sig
  type t = histogram

  val create : unit -> t
  val observe : t -> int -> unit
  val count : t -> int

  (** The total; [max_int] when it does not fit. *)
  val sum : t -> int

  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  (** Nearest-rank percentile from the log-scale buckets, clamped to the
      observed [min, max]. [p] is clamped to [0, 100]; empty → 0. *)
  val percentile : t -> float -> int
end

val counter_names : t -> string list
val gauge_names : t -> string list
val histogram_names : t -> string list
val pp : Format.formatter -> t -> unit
