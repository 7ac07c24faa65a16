(** A crash-tolerant, linearizable key-value store replicated across [n]
    SODA nodes with majority quorums (multi-writer multi-reader atomic
    registers in the ABD style; see docs/STORE.md).

    Each replica is a {!Sodal.spec} client serving a per-key
    [(tag, value)] pair behind a cluster-derived advertised pattern; a
    client operation is one or two quorum rounds over plain SODA
    REQUESTs:

    - {b query} — a GET whose argument is the key; the reply carries the
      replica's current tag and value for that key;
    - {b propagate} — a PUT whose argument is the key and whose data is a
      tagged value; the replica keeps the pair iff the tag exceeds the
      one it holds (so retries and reordered deliveries are idempotent).

    A replica's handler only queues each query or propagate on a FIFO;
    its task ACCEPTs them in order, so the handler is free for the next
    REQUEST and the kernel does not BUSY-NACK the queue's requests.

    [read] queries a majority for the maximum tag, then propagates that
    tag-value back to a majority before returning (skipped when the
    query round itself proved the tag is already on a majority).
    [write] queries a majority for the maximum tag, then propagates
    [(max.seq + 1, my mid)] with the new value to a majority.

    A round completes as soon as any majority answers. It launches only
    to replicas that hold no earlier request from this handle; replicas
    still holding one — a slow replica, or a crashed or partitioned one
    awaiting its Delta-t crash verdict — are skipped, so a handle has at
    most one request in flight per replica. Rounds try replicas in the
    handle's answer order: those that acked its previous round, in the
    order they acked, then the rest. A query round asks exactly a
    majority, replacing any that fails without an ack by the next free
    replica; when all but one of its acks are in and the last is later
    than the time the others took, it asks one more (once per round), so
    a silent replica does not hold it until the crash verdict. A
    propagate round asks every free replica, which keeps replicas
    current so reads write back less often. Rounds that fail to assemble
    a majority are retried with capped exponential backoff and then
    surface {!No_quorum}.

    Tolerates [f < n/2] replica crashes. Rebooted replicas must come
    back with their table intact (stable storage) — re-attach the same
    {!replica} value — or atomicity is lost; see docs/STORE.md. *)

module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Sodal = Soda_runtime.Sodal

(** {1 Replica side} *)

(** A replica's identity plus its durable table. The table survives the
    kernel incarnation: re-attaching the same [replica] after a scripted
    reboot models crash-recovery with stable storage. *)
type replica

val replica : cluster:string -> index:int -> replica

(** [replica_spec ?register r] is the server program. With
    [~register:true] the task additionally mints a fresh per-incarnation
    unique entry point, advertises it alongside the stable pattern, and
    binds it in the §6.14 switchboard under ["/store/<cluster>/<index>"] —
    [register]ing on first boot and [rebind]ing to reclaim the name when
    a previous incarnation's binding is still there. *)
val replica_spec : ?register:bool -> replica -> Sodal.spec

(** Incarnation count (bumped by each boot), and direct table access for
    tests. *)
val incarnations : replica -> int

val peek_replica : replica -> key:int -> (Tag.t * bytes) option

(** Seed a replica's stable storage directly (test fixture: builds the
    asymmetric states a partially-propagated write leaves behind). Obeys
    the same keep-iff-newer rule as the wire path. *)
val poke_replica : replica -> key:int -> Tag.t -> bytes -> unit

(** {1 Client side} *)

type t

type error = No_quorum  (** no majority answered within the retry budget *)

(** [handle env ~cluster ~mids] addresses the replicas directly through
    their stable patterns (no switchboard involved). *)
val handle : Sodal.env -> cluster:string -> mids:int list -> t

(** [connect env ~cluster ~n ()] resolves all [n] replicas through the
    switchboard (["/store/<cluster>/<index>"] bindings). The handle
    re-resolves a replica's binding between rounds when it answers
    UNADVERTISED — the signature a reboot with [~register:true]
    replaces. *)
val connect :
  Sodal.env ->
  cluster:string ->
  n:int ->
  unit ->
  (t, Soda_facilities.Nameserver.error) result

(** The longest value [write] and [cas] accept, in bytes (512): a query
    reply must fit its fixed-size buffer. *)
val max_value : int

(** [read env t ~key] — linearizable read; [None] if never written. *)
val read : Sodal.env -> t -> key:int -> (bytes option, error) result

(** [write env t ~key value] — linearizable write.
    @raise Invalid_argument if [value] is longer than {!max_value} bytes,
    before any round is sent. *)
val write : Sodal.env -> t -> key:int -> bytes -> (unit, error) result

(** [cas env t ~key ~expect value] — read-modify-write round: writes
    [value] and returns [true] iff the read phase observed [expect].
    Atomic only in the absence of concurrent writers to [key] (a quorum
    round is not consensus); see docs/STORE.md.
    @raise Invalid_argument as {!write} does. *)
val cas :
  Sodal.env -> t -> key:int -> expect:bytes option -> bytes -> (bool, error) result
