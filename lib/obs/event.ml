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

let pkts =
  [ P_request; P_accept; P_put_data; P_ack; P_busy; P_error; P_cancel; P_cancel_reply; P_probe;
    P_probe_reply; P_discover; P_discover_reply ]

let pkt_name = function
  | P_request -> "REQ"
  | P_accept -> "ACCEPT"
  | P_put_data -> "DATA"
  | P_ack -> "ACK"
  | P_busy -> "BUSY"
  | P_error -> "ERR"
  | P_cancel -> "CANCEL"
  | P_cancel_reply -> "CANCEL_R"
  | P_probe -> "PROBE"
  | P_probe_reply -> "PROBE_R"
  | P_discover -> "DISCOVER"
  | P_discover_reply -> "DISCOVER_R"

(* [tid = no_tid] marks packets that carry no transaction id (bare ACKs);
   [peer = broadcast_peer] marks broadcast destinations. *)
let no_tid = -1
let broadcast_peer = -1

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

let marks =
  [ Record_created; Record_expired; Take_any_sn; No_sync_drop; Duplicate_replayed;
    Stale_dropped; Probe_silent; Probe_lost; Data_wait_expired; Transport_reset;
    Client_booted; No_boot_program; Kill_signalled; Boot_kind_added; Boot_kind_removed;
    Kill_pattern_replaced; System_malformed; Load_granted; Client_died; Hardware_crash;
    Quarantine_over ]

let mark_name = function
  | Record_created -> "record-created"
  | Record_expired -> "record-expired"
  | Take_any_sn -> "take-any-sn"
  | No_sync_drop -> "no-sync-drop"
  | Duplicate_replayed -> "duplicate-replayed"
  | Stale_dropped -> "stale-dropped"
  | Probe_silent -> "probe-silent"
  | Probe_lost -> "probe-lost"
  | Data_wait_expired -> "data-wait-expired"
  | Transport_reset -> "transport-reset"
  | Client_booted -> "client-booted"
  | No_boot_program -> "no-boot-program"
  | Kill_signalled -> "kill-signalled"
  | Boot_kind_added -> "boot-kind-added"
  | Boot_kind_removed -> "boot-kind-removed"
  | Kill_pattern_replaced -> "kill-pattern-replaced"
  | System_malformed -> "system-malformed"
  | Load_granted -> "load-granted"
  | Client_died -> "client-died"
  | Hardware_crash -> "hardware-crash"
  | Quarantine_over -> "quarantine-over"

type store_op = Op_read | Op_write | Op_cas

let store_ops = [ Op_read; Op_write; Op_cas ]

let store_op_name = function Op_read -> "read" | Op_write -> "write" | Op_cas -> "cas"

type store_phase = Query | Propagate

let store_phases = [ Query; Propagate ]

let store_phase_name = function Query -> "query" | Propagate -> "propagate"

type cwnd_reason = Cwnd_ack | Cwnd_loss

let cwnd_reasons = [ Cwnd_ack; Cwnd_loss ]

let cwnd_reason_name = function Cwnd_ack -> "ack" | Cwnd_loss -> "loss"

type bus_drop_reason = Drop_partitioned | Drop_lost | Drop_corrupted

let bus_drop_reasons = [ Drop_partitioned; Drop_lost; Drop_corrupted ]

let bus_drop_reason_name = function
  | Drop_partitioned -> "partitioned"
  | Drop_lost -> "lost"
  | Drop_corrupted -> "corrupted"

type scd_op = Scd_write | Scd_snapshot | Scd_incr | Scd_cread

let scd_ops = [ Scd_write; Scd_snapshot; Scd_incr; Scd_cread ]

let scd_op_name = function
  | Scd_write -> "write"
  | Scd_snapshot -> "snapshot"
  | Scd_incr -> "incr"
  | Scd_cread -> "cread"

type status = Accepted | Rejected | Unadvertised | Crashed | Discovered

let statuses = [ Accepted; Rejected; Unadvertised; Crashed; Discovered ]

let status_name = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Unadvertised -> "unadvertised"
  | Crashed -> "crashed"
  | Discovered -> "discovered"

type kind =
  | Trap of { tid : int; dst : int; pattern : int; put_size : int; get_size : int }
      (** REQUEST trap on the requester: the span's birth. *)
  | Enqueue of { tid : int; peer : int; pkt : pkt }
      (** A reliable message joined the per-connection stop-and-wait queue. *)
  | Tx of { tid : int; peer : int; pkt : pkt; bytes : int; seq : int; retry : bool }
  | Rx of { tid : int; peer : int; pkt : pkt; bytes : int; seq : int }
  | Acked of { tid : int; peer : int; pkt : pkt }
      (** The peer acknowledged our in-flight reliable message. *)
  | Busy_nack of { tid : int; peer : int }
      (** Server side: handler busy, REQUEST nacked. *)
  | Retransmit of { tid : int; peer : int; pkt : pkt; attempt : int }
  | Window_advance of { peer : int; base : int; in_flight : int }
      (** Sender side: a cumulative ack moved the send window base
          (emitted only when the configured window exceeds 1). *)
  | Window_buffer of { tid : int; peer : int; seq : int; expected : int }
      (** Receiver side: an out-of-order packet parked in the receive
          window until the gap at [expected] fills. *)
  | Cwnd_change of { peer : int; cwnd : int; in_flight : int; reason : cwnd_reason }
      (** Congestion window moved: additive increase on a clean ack, or
          multiplicative decrease on retransmission-timer expiry.
          Windowed transports only. *)
  | Rtt_sample of { peer : int; sample_us : int; srtt_us : int; rttvar_us : int }
      (** One Karn-clean RTT measurement folded into the estimator
          (smoothed mean + variance after the update). *)
  | Probe of { tid : int; peer : int; misses : int }
  | Deliver of { tid : int; src : int; pattern : int; put_size : int; get_size : int;
                 from_buffer : bool }
      (** Server side: REQUEST handed to the advertisement match. *)
  | Handler_invoke
  | Endhandler
  | Complete of { tid : int; status : status }
      (** Requester side: completion interrupt queued; the span's death. *)
  | Bus_frame of { src : int; dst : int; bytes : int; start_us : int; end_us : int }
      (** Medium occupancy of one frame ([dst = broadcast_peer] for broadcast). *)
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
      (** One quorum round of a replicated-store operation. *)
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
      (** An SCD client operation (write/snapshot/incr/cread) finished. *)
  | Mark of { peer : int; tid : int; mark : mark; n : int }
      (** A Delta-t or kernel state change (docs/OBSERVABILITY.md lists
          what [peer], [tid] and [n] mean for each mark). *)

type t = {
  time_us : int;
  mid : int;
  kind : kind;
  ctx : Causal.ctx option;
      (** Causal identity, present only when the recorder mints contexts
          (off by default, so legacy traces are unchanged). *)
}

let kind_label = function
  | Trap _ -> "trap"
  | Enqueue _ -> "enqueue"
  | Tx _ -> "tx"
  | Rx _ -> "rx"
  | Acked _ -> "ack"
  | Busy_nack _ -> "busy-nack"
  | Retransmit _ -> "retransmit"
  | Window_advance _ -> "window-advance"
  | Window_buffer _ -> "window-buffer"
  | Cwnd_change _ -> "cwnd-change"
  | Rtt_sample _ -> "rtt-sample"
  | Probe _ -> "probe"
  | Deliver _ -> "deliver"
  | Handler_invoke -> "handler-invoke"
  | Endhandler -> "endhandler"
  | Complete _ -> "complete"
  | Bus_frame _ -> "bus-frame"
  | Bus_drop _ -> "bus-drop"
  | Fault_partition _ -> "fault-partition"
  | Fault_heal -> "fault-heal"
  | Fault_crash _ -> "fault-crash"
  | Fault_reboot _ -> "fault-reboot"
  | Fault_duplicate _ -> "fault-duplicate"
  | Fault_jitter _ -> "fault-jitter"
  | Fault_loss_burst _ -> "fault-loss-burst"
  | Store_phase _ -> "store-phase"
  | Store_retry _ -> "store-retry"
  | Store_complete _ -> "store-complete"
  | Scd_broadcast _ -> "scd-broadcast"
  | Scd_deliver _ -> "scd-deliver"
  | Scd_op _ -> "scd-op"
  | Mark _ -> "mark"

let peer_name p = if p = broadcast_peer then "*" else string_of_int p

let mids_string mids = String.concat "," (List.map string_of_int mids)

(* Human rendering, used by the timeline and Chrome exporters. *)
let message = function
  | Trap { tid; dst; pattern; put_size; get_size } ->
    Printf.sprintf "trap REQUEST #%d to %s pattern=%06o put=%dB get=%dB" tid
      (peer_name dst) pattern put_size get_size
  | Enqueue { tid; peer; pkt } ->
    Printf.sprintf "enqueue %s#%d for %d" (pkt_name pkt) tid peer
  | Tx { tid; peer; pkt; bytes; seq; retry } ->
    Printf.sprintf "send %s#%d+%dB sn=%d%s to %s" (pkt_name pkt) tid bytes seq
      (if retry then " retry" else "")
      (peer_name peer)
  | Rx { tid; peer; pkt; bytes; seq } ->
    Printf.sprintf "recv %s#%d+%dB sn=%d from %d" (pkt_name pkt) tid bytes seq peer
  | Acked { tid; peer; pkt } -> Printf.sprintf "%s#%d acked by %d" (pkt_name pkt) tid peer
  | Busy_nack { tid; peer } -> Printf.sprintf "busy: nacking REQ#%d from %d" tid peer
  | Retransmit { tid; peer; pkt; attempt } ->
    Printf.sprintf "retransmit %s#%d to %d (attempt %d)" (pkt_name pkt) tid peer attempt
  | Window_advance { peer; base; in_flight } ->
    Printf.sprintf "send window to %d advanced to base sn=%d (%d in flight)" peer base
      in_flight
  | Window_buffer { tid; peer; seq; expected } ->
    Printf.sprintf "hold #%d sn=%d from %d in receive window (expecting sn=%d)" tid seq
      peer expected
  | Cwnd_change { peer; cwnd; in_flight; reason } ->
    Printf.sprintf "cwnd to %d now %d on %s (%d in flight)" peer cwnd (cwnd_reason_name reason)
      in_flight
  | Rtt_sample { peer; sample_us; srtt_us; rttvar_us } ->
    Printf.sprintf "rtt to %d sample %d us (srtt %d us, rttvar %d us)" peer sample_us
      srtt_us rttvar_us
  | Probe { tid; peer; misses } ->
    Printf.sprintf "probe #%d at %d (misses %d)" tid peer misses
  | Deliver { tid; src; pattern; put_size; get_size; from_buffer } ->
    Printf.sprintf "deliver REQ#%d from %d pattern=%06o put=%dB get=%dB%s" tid src pattern
      put_size get_size
      (if from_buffer then " (from pipeline buffer)" else "")
  | Handler_invoke -> "handler invoked"
  | Endhandler -> "endhandler"
  | Complete { tid; status } -> Printf.sprintf "complete #%d %s" tid (status_name status)
  | Bus_frame { src; dst; bytes; start_us; end_us } ->
    Printf.sprintf "frame %d->%s %dB on wire %d..%d us" src (peer_name dst) bytes start_us
      end_us
  | Bus_drop { src; dst; reason } ->
    Printf.sprintf "frame %d->%d %s" src dst (bus_drop_reason_name reason)
  | Fault_partition { group_a; group_b } ->
    Printf.sprintf "fault: partition {%s} | {%s}" (mids_string group_a) (mids_string group_b)
  | Fault_heal -> "fault: partition healed"
  | Fault_crash { mid } -> Printf.sprintf "fault: crash node %d" mid
  | Fault_reboot { mid } -> Printf.sprintf "fault: reboot node %d" mid
  | Fault_duplicate { count } -> Printf.sprintf "fault: duplicate next %d frame(s)" count
  | Fault_jitter { min_us; max_us } ->
    Printf.sprintf "fault: delivery jitter %d..%d us" min_us max_us
  | Fault_loss_burst { rate_pct; duration_us } ->
    Printf.sprintf "fault: loss burst %d%% for %d us" rate_pct duration_us
  | Store_phase { op; phase; key; acks; quorum; elapsed_us } ->
    Printf.sprintf "store %s key=%d %s %d/%d acks in %d us" (store_op_name op) key
      (store_phase_name phase) acks quorum elapsed_us
  | Store_retry { op; phase; key; attempt } ->
    Printf.sprintf "store %s key=%d %s retry (attempt %d)" (store_op_name op) key
      (store_phase_name phase) attempt
  | Store_complete { op; key; ok; rounds; elapsed_us } ->
    Printf.sprintf "store %s key=%d %s after %d round(s) in %d us" (store_op_name op) key
      (if ok then "ok" else "NO QUORUM")
      rounds elapsed_us
  | Scd_broadcast { sd; sn; payload } ->
    Printf.sprintf "scd broadcast (%d,%d) %s" sd sn payload
  | Scd_deliver { size; pending } ->
    Printf.sprintf "scd deliver set of %d message(s), %d buffered" size pending
  | Scd_op { op; origin; oseq; ok; elapsed_us } ->
    Printf.sprintf "scd %s op#%d.%d %s in %d us" (scd_op_name op) origin oseq
      (if ok then "ok" else "FAILED")
      elapsed_us
  | Mark { peer; tid; mark; n } ->
    mark_name mark
    ^ (if peer < 0 then "" else Printf.sprintf " peer %d" peer)
    ^ (if tid = no_tid then "" else Printf.sprintf " #%d" tid)
    ^ if n = 0 then "" else Printf.sprintf " n=%d" n

(* tid carried by an event, if any (for span grouping). *)
let tid = function
  | Trap { tid; _ } | Enqueue { tid; _ } | Tx { tid; _ } | Rx { tid; _ }
  | Acked { tid; _ } | Busy_nack { tid; _ } | Retransmit { tid; _ } | Probe { tid; _ }
  | Deliver { tid; _ } | Complete { tid; _ } | Window_buffer { tid; _ } | Mark { tid; _ } ->
    if tid = no_tid then None else Some tid
  | Window_advance _ | Cwnd_change _ | Rtt_sample _ -> None
  | Handler_invoke | Endhandler | Bus_frame _ | Bus_drop _ | Fault_partition _
  | Fault_heal | Fault_crash _ | Fault_reboot _ | Fault_duplicate _ | Fault_jitter _
  | Fault_loss_burst _ | Store_phase _ | Store_retry _ | Store_complete _
  | Scd_broadcast _ | Scd_deliver _ | Scd_op _ ->
    None
