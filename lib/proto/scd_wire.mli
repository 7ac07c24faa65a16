(** Typed frame payloads for the SCD-broadcast subsystem ({!Soda_scd}).

    SCD-broadcast (Imbs, Mostéfaoui, Perrin, Raynal — "Set-Constrained
    Delivery Broadcast", arXiv:1706.05267) is implemented with a single
    message type, FORWARD: the first time a member sees an application
    message it echoes a FORWARD of its own to every peer, so each
    broadcast costs O(n²) frames. A FORWARD carries the identity of the
    application message — its sender [sd] and sender-local sequence
    number [sn] — plus the forwarding member [f] and the value [snf] of
    [f]'s local clock when it forwarded, which members use to build the
    clock vectors that drive set-constrained delivery.

    The application payload itself is one of the operations of the two
    derived objects built on top of the broadcast (a multi-writer atomic
    snapshot object and an increment/read counter), or a pure
    synchronisation marker used by read-side operations. *)

type payload =
  | Write of { reg : int; value : int; date : int; writer : int }
      (** Snapshot-object write: register index, value, and the writer's
          timestamp (date = proxy's register date + 1, writer = member id;
          ties broken by message identity). *)
  | Incr of { delta : int; origin : int; oseq : int }
      (** Counter increment. [origin]/[oseq] identify the client
          operation so a failover re-broadcast is applied once. *)
  | Sync  (** Pure synchronisation marker (snapshot / counter-read). *)

type forward = { sd : int; sn : int; f : int; snf : int; payload : payload }

val encoded_size : forward -> int
val encode : forward -> bytes

(** {2 Batches, read in place}

    A batch is the plain concatenation of one or more [encode]d frames,
    as one transfer carries them (a one-entry batch is byte-identical to
    [encode]). A receiver [check]s the whole batch, then reads its
    entries where they lie: entry offsets run from 0, each [next] of the
    one before, up to the batch's length. *)

(** [check b] accepts a well-formed batch. An empty buffer, a truncated
    entry or an unknown tag anywhere rejects the whole buffer. It
    allocates nothing. *)
val check : bytes -> (unit, string) result

(** The readers below take a [check]ed batch and an entry's offset. *)

(** Offset of the entry after this one. *)
val next : bytes -> int -> int

val sd : bytes -> int -> int
val sn : bytes -> int -> int
val f : bytes -> int -> int
val snf : bytes -> int -> int
val kind : bytes -> int -> Soda_obs.Event.scd_payload

(** Fields of a [Write] entry (its [writer] is read by [forward] only). *)

val reg : bytes -> int -> int
val value : bytes -> int -> int
val date : bytes -> int -> int

(** Fields of an [Incr] entry. *)

val delta : bytes -> int -> int
val origin : bytes -> int -> int
val oseq : bytes -> int -> int

(** The entry as a record, for printing and tests; a member keeps
    frames, not records. *)
val forward : bytes -> int -> forward

(** [restamp b o ~f ~snf] is a fresh one-entry frame: the entry at [o]
    forwarded by [f] at its clock [snf] (the same message, header and
    payload). *)
val restamp : bytes -> int -> f:int -> snf:int -> bytes

val payload_kind : payload -> Soda_obs.Event.scd_payload
val pp : Format.formatter -> forward -> unit
val equal : forward -> forward -> bool
