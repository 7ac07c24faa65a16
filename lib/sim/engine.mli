(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock in integer microseconds and a queue of
    timestamped callbacks. Everything in the SODA reproduction — network
    transmission, kernel protocol timers, client CPU time — advances this
    clock; no wall-clock time is ever consulted, so a run is a pure
    function of its seed and workload. *)

type t

val create : ?seed:int -> unit -> t

(** Current virtual time in microseconds. *)
val now : t -> int

(** The engine's root random stream (split it rather than sharing). *)
val rng : t -> Rng.t

(** [schedule t ~delay f] runs [f] at [now t + delay] ([delay >= 0]).
    Events scheduled for the same instant run in scheduling order.
    [tag] attributes the callback to a subsystem ("kernel", "bus", ...)
    in the per-tag profiling counters. A tagged schedule finds its
    counter by a scan over the few tags seen so far, comparing by
    content; it hashes nothing. A schedule is a fresh {!timer} armed
    once, so it allocates one 4-word record and its tag counts as an
    arm does. A scheduled one-shot cannot be withdrawn: a callback that
    may need to be called off is a {!timer}. *)
val schedule : ?tag:string -> t -> delay:int -> (unit -> unit) -> unit

(** {2 Reusable timers}

    A timer is a callback allocated once and fired any number of times.
    It has at most one armed shot; arming, re-arming and disarming it
    allocate nothing. Every shot, a one-shot's included, carries an event
    id from one counter and waits in one heap; shots run by time, then by
    id. *)
type timer

(** [timer ?tag t f] is a disarmed timer that runs [f] when a shot fires.
    [tag] is counted once per arm in {!tag_counts}, not at creation and
    not when a re-arm at the same id changes nothing; its counter is
    found once, here, so arming does no lookup. *)
val timer : ?tag:string -> t -> (unit -> unit) -> timer

(** [reserve t] takes the next event id without scheduling anything. A
    caller that queues work of its own (a FIFO of fixed-delay entries
    behind one timer) reserves the id where it would have scheduled, and
    later arms the timer with it ({!arm_at}), so the entry runs exactly
    where the one-shot would have. *)
val reserve : t -> int

(** [arm t tm ~delay] arms [tm] to fire at [now t + delay] ([delay >= 0])
    with a fresh id, replacing any armed shot. *)
val arm : t -> timer -> delay:int -> unit

(** [arm_at t tm ~time ~id] arms [tm] to fire at [time] ([>= now t]) in
    the place of the reserved [id], replacing any armed shot. Arming it
    at the id it is already armed with changes nothing. *)
val arm_at : t -> timer -> time:int -> id:int -> unit

(** [disarm t tm] withdraws the armed shot, if any; it counts as
    cancelled. Disarming a disarmed timer, or one whose shot has already
    fired, changes nothing. *)
val disarm : t -> timer -> unit

(** [armed tm] is true while [tm] has a shot that has not fired. A timer
    is disarmed when its callback runs, so the callback may re-arm it. *)
val armed : timer -> bool

(** [pending t] is the number of scheduled one-shots that have not fired
    plus the number of armed timers. *)
val pending : t -> int

(** Lifetime scheduling counters (always on; plain integer increments).
    [scheduled] counts event ids taken (schedules, fresh-id arms and
    reservations), [fired] the callbacks run, [cancelled] the disarms of
    armed timers. *)
type counters = { scheduled : int; fired : int; cancelled : int; pending : int }

val counters : t -> counters

(** {2 Hot-path profiling}

    Always-on and deterministic: [run] samples the wall clock once on
    entry and once on exit, and the event loop reads it per callback
    only under {!set_profile_gc}; no reading feeds a scheduling
    decision. *)

(** Most entries the event heap has ever held (includes withdrawn timer
    shots not yet popped, i.e. real memory pressure). *)
val heap_highwater : t -> int

(** Wall-clock seconds accrued inside [run]/[run_for] calls. *)
val wall_seconds : t -> float

(** Callbacks fired per wall-clock second over the engine's lifetime
    (0 before the first [run] returns). *)
val events_per_sec : t -> float

(** Schedules and timer arms per source tag, sorted by tag. A tag that
    has counted nothing (only a timer made with it and never armed) is
    absent, here and in {!export_metrics}. *)
val tag_counts : t -> (string * int) list

(** Opt-in GC profiling: when enabled, each [run] call accumulates the
    allocation deltas it spans ([Gc.minor_words], and [Gc.counters] for
    promoted and major words), and every tagged callback's minor words
    and wall nanoseconds are charged to its tag ({!tag_costs}). Off by
    default; off, it costs one branch per event. *)
val set_profile_gc : t -> bool -> unit

(** What the callbacks of one tag cost while profiling was on: [fired]
    callbacks, the minor words they allocated and the wall nanoseconds
    they took. Whatever a callback runs inline (a continuation it
    resumes, a completion it delivers) is charged to its tag. *)
type tag_cost = { tag : string; fired : int; words : int; ns : int }

(** One entry per tag that fired while profiling was on, sorted by tag.
    Untagged callbacks are not charged. *)
val tag_costs : t -> tag_cost list

(** Accumulated [(minor, promoted, major)] allocated words while
    profiling was on. *)
val gc_words : t -> float * float * float

(** [export_metrics t m ~prefix] publishes the counters (and the current
    clock) as gauges named [prefix ^ ".scheduled"] etc. into [m], plus
    the profiling gauges [".heap_highwater"], [".wall_us"],
    [".events_per_sec"], one [".tag.<tag>"] gauge per source tag, and —
    when GC profiling is on — the [".gc_*_words"] allocation deltas. *)
val export_metrics : t -> Soda_obs.Metrics.t -> prefix:string -> unit

(** [run t] processes events until the queue is empty or [until] virtual
    microseconds is reached; with [until] given, the clock then moves
    up to it. Returns the final virtual time. A run ended by {!stop}
    leaves the clock at the stopping callback's time, so a later [run]
    fires the events still queued without the clock going backwards. *)
val run : ?until:int -> t -> int

(** [run_for t ~duration] runs until [now t + duration]. *)
val run_for : t -> duration:int -> int

exception Stop

(** [stop t] aborts the current [run] from inside an event callback. *)
val stop : t -> 'a
