(** Deterministic SCD workload harness: a member cluster plus scripted
    clients driving the snapshot object and counter, with the SCD-level
    and object-level checkers the qcheck suite, [sodal_run --scd] and the
    bench SCD section all share. *)

module Network = Soda_core.Network
module Fault_plan = Soda_fault.Fault_plan

type op_kind = Write of int * int | Snapshot | Incr of int | Cread

type outcome =
  | Wrote of Scd.ts
  | Snap of (int * Scd.ts) array
  | Incred
  | Counted of int
  | Failed  (** every member exhausted the client's failover attempts *)

type op = {
  client : int;  (** client mid *)
  index : int;  (** position in that client's script *)
  kind : op_kind;
  start_us : int;
  end_us : int;
  outcome : outcome;
}

type result = {
  net : Network.t;
  members : Scd.member array;
  history : op list;  (** completed operations, invocation order per client *)
  clients_total : int;
  clients_done : int;
  elapsed_us : int;
  issued : (int * op_kind) list;
      (** every invocation [(client mid, kind)], recorded at start — includes
          operations still in flight when the horizon cut the run *)
}

(** [script rng ~mid ~ops ~regs ~think_us] draws a client workload. Write
    values and increment deltas are unique per (client, index), which the
    checkers rely on. *)
val script :
  Soda_sim.Rng.t -> mid:int -> ops:int -> regs:int -> think_us:int ->
  (int * op_kind * int) list

(** [run ()] builds a network with [n] members on mids [0..n-1] and
    [clients] clients on mids [n..n+clients-1], runs every script to
    quiescence (or [horizon_us]), and returns histories plus final member
    states. [mean_interarrival_us] switches the clients from closed-loop
    think times to an open-loop Poisson arrival schedule (a backlog
    forms when the cluster falls behind; the offered rate never drops).
    [plan] installs a fault plan via {!Soda_fault.Injector} (members are
    re-attached with preserved state on reboot). *)
val run :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?regs:int ->
  ?seed:int ->
  ?think_us:int ->
  ?mean_interarrival_us:int ->
  ?plan:Fault_plan.t ->
  ?trace:bool ->
  ?horizon_us:int ->
  unit ->
  result

(** {1 Checkers}

    Each returns [Error msg] naming the first violated property. *)

(** SCD-broadcast properties over the members' delivery logs: validity
    (every delivered identity was broadcast), integrity (no identity
    delivered twice by one member), and set-constrained delivery — no two
    members deliver two messages in opposite orders, equivalently all
    cumulative delivered unions are pairwise comparable. *)
val check_delivery : result -> (unit, string) Stdlib.result

(** Snapshot-object and counter consistency over the client histories:
    snapshot values trace back to issued writes, all snapshots are
    mutually comparable (by register timestamp vectors), real-time order
    is respected between non-overlapping operations (write -> snapshot,
    snapshot -> snapshot, incr -> cread), counter reads are bounded by
    issued increments, and per-client reads are monotone. *)
val check_objects : result -> (unit, string) Stdlib.result

(** All members converged to identical registers, counters and delivered
    unions. Only meaningful for runs whose fault plan ended fully healed
    with no crashed members (liveness). *)
val check_convergence : result -> (unit, string) Stdlib.result

(** Stamps the members lack of each other's FORWARDs: the sum, over
    members [i <> j] both admitted by [live] (default: all), of
    [Scd.clock j - Scd.next_stamp i j]. A run whose receivers closed
    every gap reads 0. *)
val stamps_missing : ?live:(int -> bool) -> result -> int

val pp_history : Format.formatter -> op list -> unit
