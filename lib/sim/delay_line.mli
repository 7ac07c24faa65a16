(** Timed entries in (due, id) order behind one {!Engine.timer}.

    Each entry carries an event id and three payload fields: an int [n]
    and two values [a] and [b]. Each entry takes its event id where a
    one-shot {!Engine.schedule} would have been scheduled, and the one
    timer is armed at the first live entry, so every entry runs exactly
    where that one-shot would have: by due time, then by id. A line
    whose entries all wait its fixed delay is a FIFO, since the clock
    never runs back; {!push_after} gives an entry a delay of its own and
    inserts it in order. After warm-up a push allocates nothing, and a
    dropped entry keeps nothing reachable. *)

type ('a, 'b) t

(** [create ?tag engine ~delay ~fill_a ~fill_b] is an empty line whose
    {!push} waits [delay]; the fillers occupy every slot that holds no
    entry, and [tag] goes to the timer. *)
val create : ?tag:string -> Engine.t -> delay:int -> fill_a:'a -> fill_b:'b -> ('a, 'b) t

val length : ('a, 'b) t -> int

(** [push l ~fire ctx ~n a b] adds an entry due the line's delay from now
    and returns its event id. The line's timer, which runs [fire ctx]
    when the head comes due, is made at the first push: many lines are
    never used. *)
val push : ('a, 'b) t -> fire:('c -> unit) -> 'c -> n:int -> 'a -> 'b -> int

(** [push_after l ~delay ~fire ctx ~n a b] is {!push} with the entry's
    own [delay] ([>= 0]): it goes behind every entry due no later,
    found by a walk back from the tail, so an entry due last costs what
    {!push} does. The timer moves only when the entry becomes the head.
    @raise Invalid_argument on a negative delay. *)
val push_after :
  ('a, 'b) t -> delay:int -> fire:('c -> unit) -> 'c -> n:int -> 'a -> 'b -> int

(** The head entry's fields, for [fire]. All raise [Invalid_argument] on
    an empty line. *)

val head_id : ('a, 'b) t -> int
val head_n : ('a, 'b) t -> int
val head_a : ('a, 'b) t -> 'a
val head_b : ('a, 'b) t -> 'b

(** [next l live] drops the head that just fired, drops the stale
    entries behind it, and arms the timer at the first entry for which
    [live id a b] holds, or disarms it when none is left. [fire] calls
    it before acting on the head, which may push more. *)
val next : ('a, 'b) t -> (int -> 'a -> 'b -> bool) -> unit

(** The liveness test that keeps every entry, for a line whose [fire]
    tells stale entries apart itself. *)
val always : int -> 'a -> 'b -> bool

(** [cancel l live id]: the entry [id] just went stale. If it is the
    head the timer moves on as in {!next}; otherwise it is skipped when
    it reaches the head. *)
val cancel : ('a, 'b) t -> (int -> 'a -> 'b -> bool) -> int -> unit

(** [reset l] drops every entry and disarms the timer. A dropped entry
    never fires, and its event id stays taken, so every entry pushed
    later runs where it would have anyway. A line's [fire] may reset it
    once it has called {!next}. *)
val reset : ('a, 'b) t -> unit
