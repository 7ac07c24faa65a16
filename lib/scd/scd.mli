(** SCD-broadcast and its derived shared objects.

    Set-Constrained Delivery broadcast (Imbs, Mostéfaoui, Perrin, Raynal,
    arXiv:1706.05267) is a communication abstraction strictly weaker than
    total-order broadcast: processes scd-broadcast messages and deliver
    {e sets} of messages, such that no two processes deliver two messages
    in opposite orders (two sets delivered by different processes are
    never "crossed"). That is exactly strong enough to build a
    multi-writer atomic snapshot object and an increment/read counter
    with O(n²) messages per operation and no consensus.

    The implementation follows the paper's single-message-type algorithm:
    the first time a member sees an application message it FORWARDs it to
    every peer stamped with its local clock; a message becomes deliverable
    once a majority of clocks are known, and the clock vectors decide
    which buffered messages must go into the same delivered set. FORWARD
    frames are {!Soda_proto.Scd_wire} payloads sent peer-to-peer over
    per-peer FIFO channels: each member keeps one outgoing queue per
    peer with at most one transfer in flight, carrying the longest queue
    prefix that fits one buffer, so a peer sees a member's clock stamps
    in order. A member keeps one transfer in flight to a healthy peer and
    launches the next on the previous one's completion, so the quadratic
    FORWARD storm keeps at most n transfers to healthy peers in flight.
    Each transfer is an EXCHANGE whose reply carries the peer's backlog
    for us. See [docs/BROADCAST.md].

    Members expose the two derived objects to clients over a two-phase
    ticket protocol: a PUT of the encoded operation is accepted
    immediately with a fresh ticket in the reply argument, and a GET with
    the ticket as argument blocks (parks the asker) until the operation's
    own message has been scd-delivered and applied at that member —
    which is the paper's termination condition for writes, snapshots,
    increments and reads. Clients fail over to the next member when their
    proxy crashes. *)

module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Sodal = Soda_runtime.Sodal

(** {1 Members} *)

type member

(** [member ~cluster ~index ~mids ~regs] creates the resident state of
    member [index] of an [n = List.length mids] member cluster whose
    member [j] runs on machine [List.nth mids j]. State survives reboots
    of the hosting node (like a store replica's stable storage). [regs]
    is the number of snapshot-object registers. *)
val member : cluster:string -> index:int -> mids:int list -> regs:int -> member

(** Stable well-known pattern every member of [cluster] also advertises:
    the entry point for peer FORWARD frames. *)
val cluster_pattern : cluster:string -> Pattern.t

val member_spec : member -> Sodal.spec

(** {2 Introspection (tests, checkers)} *)

(** Delivered sets, oldest first; each set is the sorted list of message
    identities [(sd, sn)] it contained. *)
val deliveries : member -> (int * int) list list

(** Snapshot registers: [(value, (date, sd, sn))] per register. *)
val registers : member -> (int * (int * int * int)) array

val counter_value : member -> int

(** Number of scd-broadcasts this member initiated (as a proxy). *)
val broadcasts_made : member -> int

(** Sequence numbers of the broadcasts this member initiated — with the
    member index these are the valid message identities, used by the
    validity checker. *)
val broadcast_sns : member -> int list

(** FORWARD frames waiting in the per-peer send queues. *)
val retry_depth : member -> int

(** FORWARDs received ahead of their forwarder's next clock stamp, held
    until the gap fills (FIFO per forwarder). *)
val held_forwards : member -> int

(** {1 Clients} *)

type t

type error = Unreachable  (** every member failed over [attempts] tries *)

(** [handle env ~cluster ~mids ~regs] binds a client to the cluster.
    Operations start at a member picked from the client's mid and fail
    over round-robin on crash. *)
val handle :
  ?attempts:int ->
  Sodal.env ->
  cluster:string ->
  mids:int list ->
  regs:int ->
  t

(** Timestamp of an applied write: [(date, sd, sn)] — lexicographic order,
    [sd]/[sn] the identity of the scd-broadcast message that carried it. *)
type ts = int * int * int

(** [write env t ~reg v] writes register [reg] of the snapshot object;
    returns the timestamp the write was applied with. *)
val write : Sodal.env -> t -> reg:int -> int -> (ts, error) result

(** [snapshot env t] returns an atomic view of all registers:
    [(value, ts)] per register. *)
val snapshot : Sodal.env -> t -> ((int * ts) array, error) result

(** [incr env t ~delta] adds [delta] to the counter. Applied exactly once
    even when the client fails over mid-operation. *)
val incr : Sodal.env -> t -> delta:int -> (unit, error) result

(** [cread env t] reads the counter. *)
val cread : Sodal.env -> t -> (int, error) result
