(** The SODA kernel's network half (§5.2.2–§5.2.3).

    One [Transport.t] per node keeps one Delta-t connection record per
    peer and implements:

    - the {b sending half} of each connection as a {!Send_window}: up to
      [cost.window] (clamped 1..[max_window]) unacknowledged reliable
      messages per peer, a retransmission deadline per launched message
      with randomised exponential backoff, and AIMD congestion control with a
      Jacobson RTT estimator (windowed transports with [cost.aimd]).
      Window 1 degenerates to the paper's alternating-bit stop-and-wait
      (§5.2.3) exactly — same wire bytes, same golden trace;
    - {b receive sequencing}: cumulative acks, bounded out-of-order
      buffering and strict in-order delivery over modular sequence
      numbers (2, 16 or 256 of them, by window), with duplicate replay of
      each consumed message's response;
    - {b Delta-t} connection management: no explicit connection setup; a
      peer's record is created on first contact (window 1: any sequence
      bit is accepted; wider windows: only a run-start-flagged packet may
      establish the window base), expires after MPL + Delta-t of silence,
      and is then reused for the next new peer when nothing of it is
      still timed;
    - {b BUSY NACKs}: a REQUEST meeting a busy/closed handler is refused
      and retried by the requester at an adaptively slowed rate; retries
      never carry data. At window 1 the refusal leaves the sequence bit
      unconsumed; at wider windows it consumes the slot
      ({!Send_window.rejection_consumes});
    - the {b pipelined input buffer} (when [cost.pipelined]): instead of a
      BUSY NACK, one arriving REQUEST is held and re-offered to the kernel
      when the handler frees up. At windows > 1 a further in-order REQUEST
      meeting a full input buffer is deferred at the receive-window head,
      for a bounded number of swallowed retransmissions — then BUSY-nacked
      so a long-busy handler reads as BUSY (retried indefinitely), never
      as a crashed peer;
    - {b acknowledgement piggybacking}: an owed ACK waits for an outgoing
      packet (typically the ACCEPT) to carry it, for [ack_grace_us] plus
      the expected turnaround; an ACCEPT that carries data blocks its
      accepter, so its ack waits only the requester's turnaround;
    - {b probes} (§3.6.2): every delivered-but-unaccepted outbound request
      is probed periodically; missing replies or a rebooted server complete
      it as CRASHED;
    - {b DISCOVER}: broadcast pattern lookup with per-mid staggered
      replies (§5.3).

    The server transactions (each REQUEST the kernel took, its ACCEPT,
    and the input buffer) are {!Server_txn} records, whose transitions
    this module acts on. The client-facing semantics (patterns, handler
    states, MAXREQUESTS, booting) live in [Soda_core.Kernel], which
    drives this module through the callback record. docs/PROTOCOL.md
    maps each decision to its module. *)

module Types = Soda_base.Types

(** How a request completed, reported to the kernel exactly once. *)
type completion =
  | Comp_accepted of Client_txn.req
      (** the record holds the ACCEPT's result: [arg], [put_transferred]
          and [get_data], a view into the ACCEPT's frame that is valid
          only until [complete_request] returns: the frame goes back to
          the pool then *)
  | Comp_unadvertised
  | Comp_crashed
  | Comp_discovered of { mids : int list; get : bytes }
      (** the mids that answered a DISCOVER, and its get buffer *)

(** An outcome's data is a view into the frame that brought it, valid
    only during the [on_done] call that reports it: the accepter copies
    what it keeps, and the frame goes back to the pool on return. *)
type accept_outcome =
  | Acc_success of Wire.view  (** the put-direction data received *)
  | Acc_cancelled
  | Acc_crashed of Wire.view
      (** the requester vanished; the put-direction data that had
          arrived before it did (empty if none) *)

type delivery_decision =
  [ `Deliver  (** handler open and idle; kernel will invoke it *)
  | `Busy  (** handler busy or closed *)
  | `Unadvertised ]

type callbacks = {
  deliver_request :
    src:int ->
    tid:int ->
    pattern:Soda_base.Pattern.t ->
    arg:int ->
    put_size:int ->
    get_size:int ->
    delivery_decision;
      (** Consulted when a REQUEST could be handed to the client. On
          [`Deliver] the kernel must schedule the handler invocation.
          Never consulted for a (src, tid) the server still holds a
          record of: a second copy is acked and counted
          ([req.retake_refused]), so each transaction reaches the kernel
          at most once per incarnation. *)
  complete_request : tid:int -> completion -> unit;
      (** A request issued from this node finished. *)
  advertised : Soda_base.Pattern.t -> bool;  (** DISCOVER screening *)
  classify_unknown_tid : int -> [ `Completed | `Stale ];
      (** Incoming ACCEPT names a tid we no longer track: was it completed
          in this incarnation ([`Completed] -> CANCELLED) or minted before
          the last reboot ([`Stale] -> CRASHED)? (§5.4) *)
}

type t

val create :
  engine:Soda_sim.Engine.t ->
  bus:Soda_net.Bus.t ->
  mid:int ->
  cost:Soda_base.Cost_model.t ->
  recorder:Soda_obs.Recorder.t ->
  t

(** Must be called exactly once before any traffic. *)
val set_callbacks : t -> callbacks -> unit

(** Attach the node's NIC to the bus and start receiving. The returned NIC
    can be disabled/enabled to simulate the node powering down. *)
val attach_nic : t -> Soda_net.Nic.t

val mid : t -> int
val stats : t -> Soda_obs.Metrics.t
val cost : t -> Soda_base.Cost_model.t

(** Requester side. [put_data] is the put-direction payload, held by
    reference and read when a REQUEST or put DATA carrying it is encoded,
    so the caller must leave it alone until completion (§3.3.2 rule 1);
    [get_buffer] receives the get data, and its length is the
    receive-capacity in bytes. The request's record holds it, and
    [complete_request] hands the record over. *)
val submit_request :
  t -> dst:int -> tid:int -> pattern:Soda_base.Pattern.t -> arg:int ->
  put_data:bytes -> get_buffer:bytes -> unit

(** Broadcast DISCOVER; completes with [Comp_discovered] after the
    collection window, with at most one mid per two bytes of
    [get_buffer]. *)
val submit_discover :
  t -> tid:int -> pattern:Soda_base.Pattern.t -> get_buffer:bytes -> unit

(** Server side: complete a request, named by its requester signature
    (the one transaction of that (mid, tid), or none: a blind ACCEPT).
    [get_capacity] is the server's receive-buffer size for the
    requester's put data; [data_out] is the data sent back (truncated to
    the requester's get buffer), held by reference until [on_done].
    [on_done] fires when the data exchange is complete (bounded time). *)
val accept :
  t -> requester_mid:int -> requester_tid:int -> arg:int ->
  get_capacity:int -> data_out:bytes -> on_done:(accept_outcome -> unit) -> unit

(** Requester side: try to kill one of our uncompleted requests. [on_done
    true] iff the cancel took effect (in which case no completion will ever
    be delivered for the tid). *)
val cancel : t -> tid:int -> on_done:(bool -> unit) -> unit

(** The kernel's handler became available: re-offer a pipelined buffered
    request, if any, then offer the freed input buffer to the REQUESTs
    held at the heads of receive windows, longest-held first. *)
val flush_buffered : t -> unit

(** Crash or DIE: drop every connection record and transaction, and
    empty every delay line (see {!delay_lines}) and the send windows'
    lines, so nothing the old incarnation scheduled acts after the reset.
    The caller is responsible for the reboot quarantine. *)
val reset : t -> unit

(** Hardware teardown: {!reset}, then detach the NIC's station from the
    bus so a replacement node can re-attach under the same mid. Used by
    [Network.crash_node]. *)
val shutdown : t -> unit

(** Number of uncompleted outbound requests (for MAXREQUESTS). *)
val outstanding_requests : t -> int

(** RTT estimator state toward [peer] as [(srtt_us, rttvar_us)]; [None]
    before the first Karn-clean sample (or without a record). *)
val rtt_estimate_us : t -> peer:int -> (int * int) option

(** Entries waiting in each delay line, stale ones included: ["tx"] and
    ["rx"] (frames waiting out their packet CPU), ["probe"], ["gc"]
    (server-record GC), ["data"] (put-data waits), ["srv_copy"] and
    ["get_copy"] (data copies), ["discover"] (collection windows),
    ["answer"] (DISCOVER replies and replay memory) and ["expiry"]
    (connection records). For the test suites. *)
val delay_lines : t -> (string * int) list

(** Expired connection records kept for reuse. For the test suites. *)
val spare_records : t -> int

(** Causal identity, per live transaction. The kernel registers the
    context minted at the REQUEST trap; the server side of the transport
    adopts a child span at first sight of a context-carrying packet for
    an unknown tid. Every transport event naming a registered tid is
    stamped automatically; contexts are dropped on completion,
    server-record expiry and {!reset}. *)
val register_causal : t -> tid:int -> Soda_obs.Causal.ctx -> unit

val causal_ctx : t -> tid:int -> Soda_obs.Causal.ctx option
