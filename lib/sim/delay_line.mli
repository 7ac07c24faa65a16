(** A fixed delay: a FIFO of timed entries behind one {!Engine.timer}.

    Each entry carries an event id and three payload fields: an int [n]
    and two values [a] and [b]. Every entry waits the same delay and the
    clock never runs back, so the FIFO is in due order and one timer,
    armed at the first live entry, replaces a one-shot per entry. Each
    entry takes its event id where that one-shot would have been
    scheduled, so it runs in exactly that place. After warm-up a push
    allocates nothing, and a dropped entry keeps nothing reachable. *)

type ('a, 'b) t

(** [create ?tag engine ~delay ~fill_a ~fill_b] is an empty line; the
    fillers occupy every slot that holds no entry, and [tag] goes to the
    timer. *)
val create : ?tag:string -> Engine.t -> delay:int -> fill_a:'a -> fill_b:'b -> ('a, 'b) t

val length : ('a, 'b) t -> int

(** [push l ~fire ctx ~n a b] appends an entry due one delay from now
    and returns its event id. The line's timer, which runs [fire ctx]
    when the head comes due, is made at the first push: many lines are
    never used. *)
val push : ('a, 'b) t -> fire:('c -> unit) -> 'c -> n:int -> 'a -> 'b -> int

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

(** [cancel l live id]: the entry [id] just went stale. If it is the
    head the timer moves on as in {!next}; otherwise it is skipped when
    it reaches the head. *)
val cancel : ('a, 'b) t -> (int -> 'a -> 'b -> bool) -> int -> unit

(** [reset l] drops every entry and disarms the timer. *)
val reset : ('a, 'b) t -> unit
