(** Cooperative fibers over OCaml effects.

    A client processor's TASK and HANDLER (§3.1) each run as a fiber: plain
    OCaml code that suspends at SODA primitives and [idle ()] and is
    resumed by simulation events. One-shot continuations; a fiber whose
    resume never fires simply leaks (the simulated machine halted).

    A fiber suspends one way only: each fiber runs with a {!slot} that
    holds at most one parked continuation; [park ()] saves the fiber's
    continuation in its own slot and returns when some event calls
    [wake] on that slot. Nothing is allocated per suspension: the effect
    is a constant, and the handler's answer to it is built once per
    fiber, by {!runner}, and reused by every run. Whoever parks arranges
    its own wake-up (a reusable timer, a flag, a result field the waker
    fills) before calling [park], and parks only if the answer has not
    already come. *)

(** Raised inside a fiber to terminate it silently (client death, DIE). *)
exception Stop

(** The resume point of one fiber: empty, or one parked continuation. A
    slot serves every run of its fiber in turn (a handler per
    invocation), but only one at a time. *)
type slot

val slot : unit -> slot

(** [runner ~on_exit s fn] is a function that, at each call, runs a fresh
    [fn ()] as a fiber whose {!park} saves into [s]. [on_exit] fires when
    that run returns or terminates via {!Stop} (not when it suspends).
    Other exceptions propagate to the caller of the run (or of the [wake]
    that resumed it) after [on_exit]. The effect handler is built here,
    once: a call allocates only what [Effect.Deep.match_with] itself does
    (a closure and the run's stack). Calls may overlap only if no two
    runs are parked in [s] at once. *)
val runner : on_exit:(unit -> unit) -> slot -> (unit -> unit) -> unit -> unit

(** [park ()] suspends the current fiber in its slot until [wake]. *)
val park : unit -> unit

(** [wake s] empties [s] and resumes the fiber parked there; it returns
    when that fiber next suspends or ends. Raises [Failure] if nothing is
    parked in [s]. *)
val wake : slot -> unit
