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

(** [decode b] reads a batch: the plain concatenation of one or more
    [encode]d frames, as one transfer carries them (a one-entry batch is
    byte-identical to [encode]). Entries come back in order. An empty
    buffer, a truncated entry or an unknown tag rejects the whole buffer. *)
val decode : bytes -> (forward list, string) result
val payload_label : payload -> string
val pp : Format.formatter -> forward -> unit
val equal : forward -> forward -> bool
