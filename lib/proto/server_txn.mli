(** The server half of SODA transactions (§3.3.2): one record per
    REQUEST the kernel took, from the take until one record lifetime
    after the transaction ends. Its requester signature, (requester mid,
    tid), is its only identity: the key it is found by, and never taken
    twice while its record is held.

    A REQUEST is handed to the handler at once, or waits in the node's
    one pipelined input buffer (§5.2.3) until the handler frees up; the
    buffer names the transaction it holds. The handler then ACCEPTs it,
    or the requester CANCELs it first. An ACCEPT ends once its own send
    is settled and, when the put data was wasted on a busy transmission,
    once the requester has sent it again.

    Nothing here sends, schedules or calls back: each call makes one
    transition and reports what it did, and the transport acts on it
    (emission, the record lifetimes, stats and marks). The record type is
    [private], so the transport reads every field and changes none. *)

(** How an ACCEPT ended, reported once to its accepter. *)
type outcome =
  | Acc_success of Wire.view  (** the put-direction data received *)
  | Acc_cancelled
  | Acc_crashed of Wire.view
      (** the requester vanished; the put-direction data that had
          arrived before it did (empty if none) *)

type state =
  | Delivered  (** taken by the kernel (handed to the handler or buffered), not accepted *)
  | Accepting  (** accepted; the ACCEPT's send or the put data is still due *)
  | Completed  (** the ACCEPT ended and was reported *)
  | Cancelled  (** the requester's CANCEL was granted *)

(** Where an ACCEPT's reliable send stands. An ACCEPT that returns get
    data ends only once it is acked ([Awaiting_ack]); a dataless one may
    end while its send is still [Unacked]. The record starts its lifetime
    only once the send is [Resolved] (acked, refused with an ERROR or
    timed out) and the ACCEPT has ended. *)
type send = Awaiting_ack | Unacked | Resolved

type txn = private {
  mutable src : int;  (** the requester; mutable only for the table's lookup key *)
  mutable tid : int;
  pattern : Soda_base.Pattern.t;
  arg : int;
  put_size : int;
  get_size : int;
  mutable state : state;
  mutable data : Wire.view;
      (** the REQUEST's put data until the ACCEPT (empty when it came
          without: a retry or nothing to put), then the put data the
          ACCEPT received; empty once the transaction ended *)
  mutable put_transferred : int;  (** bytes the ACCEPT takes from the requester *)
  mutable need_data : bool;  (** the ACCEPT waits for the put data to be sent again *)
  mutable send : send;
  mutable on_done : outcome -> unit;  (** the accepter, while [Accepting] *)
  mutable gc_id : int;  (** the transport's pending lifetime entry; -1 = none *)
  mutable data_id : int;  (** the transport's pending put-data wait; -1 = none *)
}

(** A node's transactions and its input buffer. *)
type t

val create : unit -> t

(** No transaction: what [find] returns on a miss. It reads as
    [Cancelled]: not alive to a probe, and a CANCEL of it is granted. *)
val none : txn

val find : t -> src:int -> tid:int -> txn

(** A record of (src, tid) is held, in whatever state: (requester, tid)
    names one transaction, so a second take of it is refused. A copy of
    the REQUEST that reaches the kernel again (a retransmission read as
    new once the connection record expired) is asked this first. *)
val holds : t -> src:int -> tid:int -> bool

(** [add t ~src ~tid ... ~buffered] records a REQUEST the kernel took:
    handed to the handler, or with [buffered] into the input buffer,
    which must be free. [data] is the REQUEST's put data, kept unless it
    is a [retry]. A second take of a held (src, tid) raises
    [Invalid_argument]: ask [holds] first. *)
val add :
  t -> src:int -> tid:int -> pattern:Soda_base.Pattern.t -> arg:int -> put_size:int ->
  get_size:int -> data:Wire.view -> retry:bool -> buffered:bool -> unit

(** The transaction in the input buffer, or [none] when it is free. It
    stays there, in whatever state, until [free_buffer], [withdraw_buffered]
    or a granted [cancel]: an ACCEPT of it does not take it out, and the
    handler is offered it all the same. *)
val buffered : t -> txn

(** The handler took the buffered transaction: the buffer is free. *)
val free_buffer : t -> unit

(** The buffered transaction's pattern is no longer advertised: it is
    forgotten, unless it was accepted meanwhile, and the buffer is free. *)
val withdraw_buffered : t -> unit

type cancel =
  | Cancelled_now  (** it was [Delivered]: now [Cancelled], and out of the buffer *)
  | Gone  (** cancelled already, or no record: granted again *)
  | Refused  (** the handler accepted it first *)

val cancel : t -> txn -> cancel

(** [accept txn ~get_capacity ~sends_data ~on_done] starts the ACCEPT
    of a [Delivered] transaction: [Accepting], with [on_done]
    to report to. It takes up to [get_capacity] bytes of put data: those
    the REQUEST brought, or with [need_data] set, none yet. [sends_data]:
    the ACCEPT carries get data, so it ends only once acked. False, and
    nothing changes, for any other state: a second ACCEPT, or one of a
    cancelled transaction. *)
val accept : txn -> get_capacity:int -> sends_data:bool -> on_done:(outcome -> unit) -> bool

(** [take_data txn data]: the requester sent the put data again. True
    when the ACCEPT was waiting for it: it is kept, truncated to
    [put_transferred], and the wait is over. *)
val take_data : txn -> Wire.view -> bool

(** The ACCEPT has everything it waits for: it may end in success. *)
val ready : txn -> bool

(** [finish txn] ends an accepting transaction: [Completed], with its
    data and accepter dropped so the record holds nothing through its
    lifetime. Returns the accepter, for the caller to report to. *)
val finish : txn -> (outcome -> unit)

(** [resolve txn]: the ACCEPT's send is settled. True when the
    transaction has ended, so its lifetime starts now. *)
val resolve : txn -> bool

(** The transport's pending lifetime entry and put-data wait. *)

val set_gc_id : txn -> int -> unit
val set_data_id : txn -> int -> unit

(** The transaction's lifetime is over: forget it. *)
val remove : t -> txn -> unit

(** Forget every transaction and free the buffer. *)
val reset : t -> unit
