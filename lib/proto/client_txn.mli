(** The requester half of SODA transactions (§3.3, §3.6.2, §5.2.3): one
    record per outbound request, keyed by tid, from the trap until the
    request completes or is cancelled, and the node's DISCOVERs.

    A REQUEST is sent, then acked: from then on the server holds it, and
    it is probed until it completes. It completes on the server's
    ACCEPT (after any put data the ACCEPT asked for again is acked), on
    an ERROR, or on a probe verdict. A CANCEL issued while the REQUEST
    is on the wire waits for the server's state to become known; one
    that meets a delivered request goes to the server.

    Nothing here sends, schedules or calls back: each call makes one
    transition and reports what it did, and the transport acts on it
    (emission, the probe line, the copy deferral, stats, marks and the
    kernel's completion). The record type is [private], so the transport
    reads every field and changes none. *)

type state =
  | Sent  (** queued or on the wire; the server has not acked it *)
  | Delivered  (** acked: the server holds it, and it is probed *)
  | Done  (** completed or cancelled, and out of the table *)

type req = private {
  tid : int;
  dst : int;
  put : bytes;  (** the put data, kept to be sent again if the ACCEPT asks *)
  get_size : int;
  submit_us : int;  (** trap time, for the completion-latency histogram *)
  mutable state : state;
  mutable probe_id : int;  (** the transport's live probe-line entry; -1 = none *)
  mutable unanswered : int;
      (** probes sent since the last reply: at the next probe time each
          counts as a miss *)
  mutable on_cancel : bool -> unit;
      (** a CANCEL waiting for the server's state to become known;
          [no_cancel] when none *)
  mutable arg : int;  (** the ACCEPT's result, once one arrived *)
  mutable put_transferred : int;
  mutable get_data : Wire.view;  (** a view into the ACCEPT's frame, cut to [get_size] *)
}

(** A node's outbound requests and DISCOVERs. *)
type t

val create : unit -> t

(** No request: what [find] returns on a miss. It reads as [Done]. *)
val none : req

val find : t -> int -> req

(** [add t ~tid ~dst ~put ~get_size ~now] records a REQUEST trapped at
    [now]: [Sent]. *)
val add : t -> tid:int -> dst:int -> put:bytes -> get_size:int -> now:int -> req

(** Outbound requests and DISCOVERs not yet completed (MAXREQUESTS). *)
val outstanding : t -> int

(** The REQUEST was acked. True when it was [Sent]: now [Delivered], to
    be probed, and a waiting CANCEL may go to the server. *)
val deliver : req -> bool

(** [probe req ~limit] at a probe time of a [Delivered] request: true
    to send a probe, false when [limit] probes in a row went unanswered
    and the server is taken for crashed. *)
val probe : req -> limit:int -> bool

(** A probe reply came: true when the request is [Delivered], whose
    unanswered probes are then forgotten. *)
val probe_answered : req -> bool

(** How an ACCEPT for a request was taken. *)
type accept =
  | Unknown  (** no request of this tid is pending *)
  | Foreign  (** it came from a server other than the addressed one (§3.3.2 rule 6) *)
  | Taken  (** its result is in the record: [arg], [put_transferred], [get_data] *)

val accept : req -> src:int -> arg:int -> put_transferred:int -> data:Wire.view -> accept

(** [drop_data req] empties [get_data] and returns what it held: the
    completion has copied it out, so its frame can go back. *)
val drop_data : req -> Wire.view

(** The CANCEL answer of a request without one waiting. *)
val no_cancel : bool -> unit

(** [await_cancel req on_done]: a CANCEL of a [Sent] request on the
    wire waits for the server's state to become known. *)
val await_cancel : req -> (bool -> unit) -> unit

(** The waiting CANCEL, no longer waiting; [no_cancel] when none. *)
val take_cancel : req -> (bool -> unit)

(** [retire t req]: the request completed or was cancelled. It leaves
    the table, [Done], with no probe-line entry; false when it had left
    already. *)
val retire : t -> req -> bool

(** The transport's live probe-line entry. *)
val set_probe_id : req -> int -> unit

(** {2 DISCOVER} *)

type discovery

(** Belongs to no collection: it fills an empty slot. *)
val no_discovery : discovery

(** [discover t ~tid ~max_mids] starts collecting the mids that answer
    DISCOVER [tid], at most [max_mids] of them. *)
val discover : t -> tid:int -> max_mids:int -> discovery

(** [discover_reply t ~tid ~src]: [src] answered. A mid counts once,
    and a reply after the collection ended changes nothing. *)
val discover_reply : t -> tid:int -> src:int -> unit

(** The collection ends: the mids that answered, in reply order. *)
val discovered : t -> discovery -> int list

(** Forget every request and DISCOVER. *)
val reset : t -> unit
