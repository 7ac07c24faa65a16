(** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), as computed by the
    simulated Megalink interface to detect transmission errors. A frame
    whose CRC does not match is silently discarded by the receiving NIC,
    exactly as in §5.2.2 of the paper.

    Computed by slicing-by-8 (Kounavis & Berry, ISCC 2005): eight
    independent table lookups fold in eight bytes at a time, and a tail
    shorter than eight bytes goes through the bytewise table. The result is
    the same as the bytewise algorithm's, and {!compute}, {!seal} and
    {!payload_len} allocate nothing. *)

(** [compute bytes ~off ~len] returns the 16-bit checksum of
    [bytes.[off .. off+len-1]].
    @raise Invalid_argument when [off] or [len] is negative or the range
    runs past the end of [bytes]. *)
val compute : bytes -> off:int -> len:int -> int

(** [append payload] returns [payload] with its 2-byte big-endian CRC
    appended. *)
val append : bytes -> bytes

(** [check wire] verifies a frame produced by [append]; returns the payload
    without the trailer on success. Allocates a copy — hot paths use
    {!payload_len} and read the payload in place. *)
val check : bytes -> bytes option

(** [seal wire ~len] computes the CRC of [wire.[0 .. len-1]] and writes
    the 2-byte big-endian trailer in place at [len]; the zero-copy
    equivalent of [append] for pooled buffers of at least [len + 2] bytes.
    @raise Invalid_argument when the buffer lacks room for the trailer. *)
val seal : bytes -> len:int -> unit

(** [screen wire ~len] is {!payload_len} for the frame occupying
    [wire.[0 .. len-1]] (trailer included): a pooled buffer may be larger
    than its frame.
    @raise Invalid_argument when [len] runs past the buffer. *)
val screen : bytes -> len:int -> int

(** [payload_len wire] verifies the trailer in place and returns the
    payload length, or [-1] on CRC mismatch (no option allocation; this
    runs once per delivered frame). *)
val payload_len : bytes -> int
