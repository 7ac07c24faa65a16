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

(** {2 Keys}

    A counter or histogram is named once per process by an interned
    key, declared at the top of the module that writes it. Interning is
    by name: two modules that declare the same name write one counter.
    Every registry holds its values in arrays indexed by key, so a write
    hashes nothing and allocates nothing: it is an array store, plus one
    branch that grows the registry's array when a key lies past its end
    (the first write of a key a registry has not reached). *)

type counter_key
type histogram_key

val counter_key : string -> counter_key
val histogram_key : string -> histogram_key

(** {2 Writes} *)

(** [count t k] adds one to [k]'s counter. *)
val count : t -> counter_key -> unit

(** [count_by t k n] adds [n]. Adding 0 lists the counter at 0. *)
val count_by : t -> counter_key -> int -> unit

(** [sample t k v] records [v] (clamped to 0 when negative) in [k]'s
    histogram, made at its first sample. *)
val sample : t -> histogram_key -> int -> unit

(** [declare t k] lists [k]'s histogram before its first sample, as
    [count_by t k 0] lists a counter. *)
val declare : t -> histogram_key -> unit

(** {2 Listing}

    A key never written in a registry is not listed there: [counter]
    reads 0, [histogram] [None], and neither the names, [pp] nor
    {!Export} mention it. A key written once, even by [count_by _ _ 0]
    or [declare], is listed from then on. *)

(** A counter's value; 0 when never written. *)
val counter : t -> string -> int

val histogram : t -> string -> histogram option

(** Gauges (set to the latest value), string-keyed: only exports set them. *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int

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
