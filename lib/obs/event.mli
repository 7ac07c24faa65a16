(** Typed observability events.

    One constructor per protocol-visible moment of a request's life (trap,
    enqueue, tx, rx, ack, busy-nack, retransmit, probe, deliver,
    handler-invoke, endhandler, complete), plus bus-level frame events and
    [Mark]s for Delta-t and kernel state changes. Every packet-shaped
    event records the transaction id, peer, packet kind, byte count and
    sequence bit, so phase breakdowns are derived from data instead of
    grepped out of format strings. *)

type pkt =
  | P_request
  | P_accept
  | P_put_data
  | P_ack
  | P_busy
  | P_error
  | P_cancel
  | P_cancel_reply
  | P_probe
  | P_probe_reply
  | P_discover
  | P_discover_reply

(** Every packet kind, in declaration order: the order of the wire's
    kind codes. *)
val pkts : pkt list

val pkt_name : pkt -> string

(** Sentinel for events that carry no transaction id. *)
val no_tid : int

(** Sentinel destination for broadcast. *)
val broadcast_peer : int

(** Delta-t record lifecycle and kernel state changes: the annotations
    of the paper's "Typical Delta-t Situations" timelines. *)
type mark =
  | Record_created
  | Record_expired
  | Take_any_sn
  | No_sync_drop
  | Duplicate_replayed
  | Stale_dropped
  | Probe_silent
  | Probe_lost
  | Data_wait_expired
  | Transport_reset
  | Client_booted
  | No_boot_program
  | Kill_signalled
  | Boot_kind_added
  | Boot_kind_removed
  | Kill_pattern_replaced
  | System_malformed
  | Load_granted
  | Client_died
  | Hardware_crash
  | Quarantine_over

(** Every mark, in declaration order. *)
val marks : mark list

(** Kebab-case name ("record-created", ...), as exported. *)
val mark_name : mark -> string

(** A replicated-store client operation. *)
type store_op = Op_read | Op_write | Op_cas

(** Every store operation, in declaration order. *)
val store_ops : store_op list

(** ["read"], ["write"] or ["cas"], as exported. *)
val store_op_name : store_op -> string

(** The two quorum rounds of an ABD operation: a query GETs each
    answering replica's tag and value, a propagate PUTs a tagged value. *)
type store_phase = Query | Propagate

val store_phases : store_phase list

(** ["query"] or ["propagate"], as exported. *)
val store_phase_name : store_phase -> string

(** Why a congestion window moved: [Cwnd_ack] is the additive increase
    on a clean cumulative ack, [Cwnd_loss] the multiplicative decrease on
    a retransmission-timer expiry. *)
type cwnd_reason = Cwnd_ack | Cwnd_loss

(** Every reason, in declaration order. *)
val cwnd_reasons : cwnd_reason list

(** ["ack"] or ["loss"], as exported. *)
val cwnd_reason_name : cwnd_reason -> string

(** Why the bus dropped a frame: a partition cut it, the loss draw took
    it, or its CRC failed at the receiver. *)
type bus_drop_reason = Drop_partitioned | Drop_lost | Drop_corrupted

(** Every reason, in declaration order. *)
val bus_drop_reasons : bus_drop_reason list

(** ["partitioned"], ["lost"] or ["corrupted"], as exported. *)
val bus_drop_reason_name : bus_drop_reason -> string

(** An SCD client operation: a register write, a snapshot read, a counter
    increment or a counter read. *)
type scd_op = Scd_write | Scd_snapshot | Scd_incr | Scd_cread

(** Every op, in declaration order. *)
val scd_ops : scd_op list

(** ["write"], ["snapshot"], ["incr"] or ["cread"], as exported. *)
val scd_op_name : scd_op -> string

(** How a request completed at its requester: accepted, rejected (an
    ACCEPT with a negative argument, §4.1.2), unadvertised, crashed, or
    a DISCOVER that collected its replies. *)
type status = Accepted | Rejected | Unadvertised | Crashed | Discovered

(** Every status, in declaration order. *)
val statuses : status list

(** Lower-case name (["accepted"], ...), as exported. *)
val status_name : status -> string

type kind =
  | Trap of { tid : int; dst : int; pattern : int; put_size : int; get_size : int }
  | Enqueue of { tid : int; peer : int; pkt : pkt }
  | Tx of { tid : int; peer : int; pkt : pkt; bytes : int; seq : int; retry : bool }
  | Rx of { tid : int; peer : int; pkt : pkt; bytes : int; seq : int }
  | Acked of { tid : int; peer : int; pkt : pkt }
  | Busy_nack of { tid : int; peer : int }
  | Retransmit of { tid : int; peer : int; pkt : pkt; attempt : int }
  | Window_advance of { peer : int; base : int; in_flight : int }
      (** Sender side: a cumulative ack moved the send window base
          (emitted only when the configured window exceeds 1, so the
          window-1 event stream stays identical to the seed's). *)
  | Window_buffer of { tid : int; peer : int; seq : int; expected : int }
      (** Receiver side: an out-of-order packet parked in the receive
          window until the gap at [expected] fills. *)
  | Cwnd_change of { peer : int; cwnd : int; in_flight : int; reason : cwnd_reason }
      (** Congestion window moved (see {!cwnd_reason}). Emitted only by
          windowed (> 1) transports with AIMD on. *)
  | Rtt_sample of { peer : int; sample_us : int; srtt_us : int; rttvar_us : int }
      (** One RTT measurement accepted by the estimator (Karn's rule:
          retransmitted packets never sample); [srtt_us]/[rttvar_us]
          are the post-update smoothed mean and variance. *)
  | Probe of { tid : int; peer : int; misses : int }
  | Deliver of { tid : int; src : int; pattern : int; put_size : int; get_size : int;
                 from_buffer : bool }
  | Handler_invoke
  | Endhandler
  | Complete of { tid : int; status : status }
  | Bus_frame of { src : int; dst : int; bytes : int; start_us : int; end_us : int }
  | Bus_drop of { src : int; dst : int; reason : bus_drop_reason }
  | Fault_partition of { group_a : int list; group_b : int list }
      (** Injected network split: frames crossing the cut are dropped. *)
  | Fault_heal
  | Fault_crash of { mid : int }  (** Injected hardware crash of one node. *)
  | Fault_reboot of { mid : int }
      (** Node re-created with a fresh boot epoch (then quarantined, §5.4). *)
  | Fault_duplicate of { count : int }  (** Next [count] frames delivered twice. *)
  | Fault_jitter of { min_us : int; max_us : int }
      (** Per-frame delivery jitter enabled (frames may reorder). *)
  | Fault_loss_burst of { rate_pct : int; duration_us : int }
      (** Temporary elevated loss rate. *)
  | Store_phase of
      { op : store_op; phase : store_phase; key : int; acks : int; quorum : int;
        elapsed_us : int }
      (** One quorum round of a replicated-store operation: [acks] of
          [quorum] needed answered. *)
  | Store_retry of { op : store_op; phase : store_phase; key : int; attempt : int }
      (** A quorum round failed to assemble a majority and is retried. *)
  | Store_complete of
      { op : store_op; key : int; ok : bool; rounds : int; elapsed_us : int }
      (** A store operation finished ([ok = false]: no quorum reachable). *)
  | Scd_broadcast of { sd : int; sn : int; payload : string }
      (** An SCD member started a broadcast (first FORWARD of a message). *)
  | Scd_deliver of { size : int; pending : int }
      (** An SCD member delivered a message set of [size] messages
          ([pending] quadruplets remain buffered). *)
  | Scd_op of { op : scd_op; origin : int; oseq : int; ok : bool; elapsed_us : int }
      (** An SCD client operation finished. *)
  | Mark of { peer : int; tid : int; mark : mark; n : int }
      (** [peer] is [-1] and [tid] is {!no_tid} when they do not apply;
          [n] is a count or detail, [0] when unused. *)

type t = {
  time_us : int;
  mid : int;
  kind : kind;
  ctx : Causal.ctx option;
      (** Causal identity, present only when the recorder mints contexts
          (off by default, so legacy traces are unchanged). *)
}

(** Short machine-readable label ("tx", "busy-nack", ...). *)
val kind_label : kind -> string

val peer_name : int -> string

(** Comma-joined mid list ("0,1,2"), used when rendering partition groups. *)
val mids_string : int list -> string

(** Human one-line rendering, used by the timeline and Chrome exporters. *)
val message : kind -> string

(** Transaction id carried by the event, if any. *)
val tid : kind -> int option
