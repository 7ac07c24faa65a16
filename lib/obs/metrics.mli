(** Metrics registry: named counters, gauges and log-scale histograms.

    Histograms store exact unit buckets for values below 64 and 32
    sub-buckets per power-of-two octave above (≤ ~3% relative error on
    percentiles), with exact count/sum/min/max. This replaces the raw
    sample lists the old [Stats] kept: memory is O(buckets), not O(n). *)

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
