(** The three readers the benchmark harness under [sodabench/] calls on a
    node's or the bus's stats. Those stats are a {!Soda_obs.Metrics}
    registry, which the rest of the tree reads directly; the next change
    to the benchmark does too and deletes this module. *)

type t = Soda_obs.Metrics.t

val counter : t -> string -> int
val histogram : t -> string -> Soda_obs.Metrics.histogram option

(** A §5.5 category's time in microseconds: the counter of that name. *)
val time_us : t -> string -> int
