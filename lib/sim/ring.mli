(** A FIFO of timed entries, structure-of-arrays.

    Each entry is a due time, an event id and three payload fields: an int
    [n] and two values [a] and [b]. A caller that delays many entries by
    the same amount pushes them here in due order and keeps one
    {!Engine.timer} armed at the head, instead of scheduling a callback
    per entry. After warm-up, a push allocates nothing, and a popped slot
    is cleared to the fillers so it keeps nothing reachable. *)

type ('a, 'b) t

(** [create ~fill_a ~fill_b] is an empty ring; the fillers occupy every
    slot that holds no entry. *)
val create : fill_a:'a -> fill_b:'b -> ('a, 'b) t

val is_empty : ('a, 'b) t -> bool

val length : ('a, 'b) t -> int

(** [push r ~due ~id ~n a b] appends an entry at the tail. *)
val push : ('a, 'b) t -> due:int -> id:int -> n:int -> 'a -> 'b -> unit

(** The head entry's fields. All raise [Invalid_argument] on an empty
    ring. *)

val head_due : ('a, 'b) t -> int
val head_id : ('a, 'b) t -> int
val head_n : ('a, 'b) t -> int
val head_a : ('a, 'b) t -> 'a
val head_b : ('a, 'b) t -> 'b

(** [drop r] removes the head entry. Raises [Invalid_argument] on an
    empty ring. *)
val drop : ('a, 'b) t -> unit

(** [clear r] removes every entry. *)
val clear : ('a, 'b) t -> unit
