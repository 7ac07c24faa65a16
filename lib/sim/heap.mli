(** Binary min-heap specialised for the event queue.

    Elements are ordered by an integer key (the event time) with a
    monotonically increasing sequence number as a tie-breaker, so that two
    events scheduled for the same instant pop in insertion order.

    Every simulated callback crosses this heap once in each direction.
    Each value is stored once, in a slot that does not move while it is
    queued; the heap order is kept over ints only (key, sequence number,
    slot index), so sifting stores no pointer and pays no write barrier.
    Steady-state push/pop allocates nothing; [create] allocates nothing
    either, and capacity grows by doubling on demand. *)

type 'a t

(** [create ~filler] is an empty heap. [filler] occupies every slot that
    holds no element, so a popped value is never kept reachable by the
    heap. *)
val create : filler:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push heap ~key ~seq value] inserts [value] with priority
    [(key, seq)]. *)
val push : 'a t -> key:int -> seq:int -> 'a -> unit

(** {2 Allocation-free draining}

    The accessors below are the event loop's interface: check
    {!is_empty}, read the minimum with [min_key]/[min_seq]/[min_value],
    then [drop_min]. All raise [Invalid_argument] on an empty heap. *)

val min_key : 'a t -> int
val min_seq : 'a t -> int
val min_value : 'a t -> 'a
val drop_min : 'a t -> unit

(** {2 Allocating conveniences} *)

(** [pop_min heap] removes and returns the element with the smallest
    [(key, seq)], or [None] if the heap is empty. *)
val pop_min : 'a t -> (int * int * 'a) option

(** [peek_key heap] returns the smallest key without removing it. *)
val peek_key : 'a t -> int option
