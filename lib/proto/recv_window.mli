(** The receiving half of a connection: one window per peer.

    Reliable messages are consumed strictly in sequence order, one
    number of the modular space [Cost.seq_space] at a time. The window
    keeps one slot per sequence number: while the number lies in
    [\[base, base + W)] the slot may hold a stashed packet (arrived
    ahead of a gap, or a REQUEST held at the head while the node's input
    buffer is full); once the number falls behind the base it holds the
    identity of its last consume and the response to replay when a
    duplicate of it arrives. Nothing here sends, delivers or emits: each
    call reports what it did and the transport acts on it. *)

type cls =
  | In_order  (** at the base (or, before the first consume, a take-any): consume now *)
  | Out_of_order  (** inside the window but ahead of a gap: stash it *)
  | Dup  (** behind the window and already consumed: replay its response *)
  | Resync  (** behind the window but another message: the sender reused the number *)
  | No_sync
      (** before the first consume, at W > 1, a packet that is not a run
          start: it may sit anywhere inside a reordered burst, so the
          window waits for the flagged run start instead *)
  | Unsequenced  (** an ack, response, probe or discovery *)

(** What [stash] did with a packet. *)
type stashed =
  | Already_stashed  (** the same message holds its number: the first copy stays *)
  | Stashed
  | Replaced_stale
      (** another message held the number (the sender vacated it by
          exhausting its retransmissions and reused it): that one is
          dropped *)

(** Per-node constants and stats slots, shared by the node's windows. *)
type shared

val shared : Soda_obs.Metrics.t -> Soda_base.Cost_model.t -> shared

(** One peer's receiving half. *)
type t

(** A window before its first packet: no base, nothing stashed or held. *)
val create : shared -> t

(** A window of no peer: it has no slots, and no packet may be given to
    it. A filler for arrays of windows. *)
val nobody : shared -> t

(** No packet: what [head] returns when nothing is in order. *)
val none : Wire.rx

val classify : t -> Wire.rx -> cls

(** The next number to consume; -1 before the first consume (take any). *)
val base : t -> int

(** The cumulative ack: the last number consumed in order; -1 before the
    first. *)
val cum_ack : t -> int

(** [consume w ~resync pkt] consumes [pkt]'s number: the base moves past
    it and the slot records [pkt]'s identity, with no response yet.
    [resync] (a [Resync] packet) first forgets every stash and record:
    the sender's numbering restarted. True when a stashed packet of
    another message held the number: it is dropped, as [stash] drops one. *)
val consume : t -> resync:bool -> Wire.rx -> bool

(** [respond w pkt body]: [body] answers the consumed [pkt]; a duplicate
    of [pkt] replays it. *)
val respond : t -> Wire.rx -> Wire.body -> unit

(** The response to replay for a [Dup]: what [respond] stored, or
    [Wire.Ack] when the consume had no response. *)
val response : t -> Wire.rx -> Wire.body

(** [stash w pkt] parks [pkt], which is [Out_of_order] or a REQUEST held
    at the head. A copy of a stashed message is not stashed again:
    retransmissions carry no data, the first copy may. *)
val stash : t -> Wire.rx -> stashed

(** [flush_run_stale w pkt]: [pkt] is a run start being consumed, so its
    sender had nothing else outstanding; every stashed packet other than a
    copy of [pkt] predates the run and is dropped. That includes a packet
    launched after the run start that overtook it on the wire: it is
    still unacknowledged, so its retransmission recovers it. Returns how
    many were dropped. *)
val flush_run_stale : t -> Wire.rx -> int

(** The stashed packet at the base (before the first consume, the held
    REQUEST), or [none]. *)
val head : t -> Wire.rx

(** The stashed head when [pkt] is a copy of it (a retransmission), or
    [none]. *)
val head_copy : t -> Wire.rx -> Wire.rx

(** Something is stashed. *)
val active : t -> bool

(** [hold w pkt]: the stashed head REQUEST [pkt] was offered and the
    node's input buffer is full. A different packet than the one held
    before starts a fresh retry count. True when nothing was held: the
    caller queues the connection for freed input-buffer capacity. *)
val hold : t -> Wire.rx -> bool

(** The connection left the queue of held connections. *)
val release : t -> unit

(** A REQUEST is held: the connection waits in the queue of held
    connections until [release]. *)
val holding : t -> bool

(** [reuse w] makes [w], with nothing stashed or held, exactly what
    [create] gives: no base, no consume records, no stored responses.
    The window is then another peer's. It allocates nothing.
    @raise Invalid_argument when a packet is stashed or held. *)
val reuse : t -> unit

(** [held_retry w pkt]: a retransmission of the held head [pkt] was
    swallowed. True once the count reaches [max_retrans - 2] (at least
    1): the caller consumes [pkt] and refuses it BUSY, so the requester
    falls back to the indefinite BUSY-retry path instead of failing
    against a merely long-busy handler, with margin left for a lost nack
    (answered by duplicate replay). *)
val held_retry : t -> Wire.rx -> bool
