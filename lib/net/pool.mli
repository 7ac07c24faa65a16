(** Reusable frame-buffer pool, one free list per power-of-two size
    class.

    Hot-path senders acquire a buffer that holds the frame, encode and
    CRC-seal in place, and hand ownership to the bus ({!Bus.transmit}).
    A frame's length travels beside its buffer ({!Frame.t}[.len]): the
    buffer may be larger. The bus releases a frame nobody receives, and a
    broadcast frame after its sweep; a delivered unicast frame belongs to
    its receiver, which releases it once no view of it is left.

    The pool is a cache, not an accounting authority: a buffer that is
    never released (a line emptied by a kernel reset, a run cut off at
    the horizon) is reclaimed by the GC and the pool simply mints a fresh
    one next time. See docs/PERFORMANCE.md for the full ownership
    rules. *)

type t

val create : unit -> t

(** [acquire t len] returns a buffer of the class that holds [len]
    bytes, the least power of two at or above both [len] and 16: recycled
    from that class when it holds one, freshly allocated otherwise.
    Contents are unspecified (recycled buffers carry stale bytes).
    @raise Invalid_argument on negative [len]. *)
val acquire : t -> int -> bytes

(** [release t buf] returns [buf] to the greatest class it can serve.
    The caller must not touch
    [buf] afterwards. Releasing a buffer twice, or one still viewed
    elsewhere, aliases a live frame; the receive path's tests check
    that the transport never does. *)
val release : t -> bytes -> unit

(** Buffers acquired and not yet released. *)
val live : t -> int

(** Lifetime acquire count. *)
val acquires : t -> int

(** Acquires satisfied by recycling rather than fresh allocation. *)
val reuses : t -> int
