type category =
  | Conn_timer
  | Retrans_timer
  | Context_switch
  | Transmission
  | Client_overhead
  | Protocol

let label = function
  | Conn_timer -> "connection timers"
  | Retrans_timer -> "retransmit timers"
  | Context_switch -> "context switch"
  | Transmission -> "transmission time"
  | Client_overhead -> "client overhead"
  | Protocol -> "protocol time"

let all_categories =
  [ Conn_timer; Retrans_timer; Context_switch; Transmission; Client_overhead; Protocol ]

type t = {
  word_bytes : int;
  header_bytes : int;
  max_data_bytes : int;
  packet_protocol_us : int;
  conn_timer_us : int;
  retrans_timer_us : int;
  context_switch_us : int;
  request_trap_us : int;
  accept_trap_us : int;
  small_trap_us : int;
  handler_client_us : int;
  copy_word_us : int;
  ack_grace_us : int;
  retrans_interval_us : int;
  retrans_backoff : float;
  max_retrans : int;
  busy_retry_us : int;
  busy_retry_backoff : float;
  busy_retry_max_us : int;
  probe_interval_us : int;
  probe_miss_limit : int;
  mpl_us : int;
  discover_window_us : int;
  discover_stagger_us : int;
  maxrequests : int;
  pipelined : bool;
  associative_patterns : bool;
  window : int;
  aimd : bool;
}

let default =
  {
    word_bytes = 2;
    header_bytes = 16;
    max_data_bytes = 4096;
    packet_protocol_us = 500;
    conn_timer_us = 250;
    retrans_timer_us = 175;
    context_switch_us = 400;
    request_trap_us = 700;
    accept_trap_us = 700;
    small_trap_us = 60;
    handler_client_us = 400;
    copy_word_us = 12;
    ack_grace_us = 2000;
    retrans_interval_us = 10_000;
    retrans_backoff = 1.5;
    max_retrans = 6;
    busy_retry_us = 5000;
    busy_retry_backoff = 1.25;
    busy_retry_max_us = 40_000;
    probe_interval_us = 250_000;
    probe_miss_limit = 3;
    mpl_us = 50_000;
    discover_window_us = 30_000;
    discover_stagger_us = 1000;
    maxrequests = 3;
    pipelined = true;
    associative_patterns = true;
    window = 1;
    aimd = true;
  }

let non_pipelined = { default with pipelined = false }

let max_window = 64

(* Transport windows: W sequence numbers may be unacknowledged per
   peer-direction. W=1 is the paper's alternating bit and must stay the
   degenerate case, byte-for-byte. *)
let transport_window t = max 1 (min t.window max_window)

(* The sequence-number space. W=1 keeps the 1-bit space (and hence the
   seed's exact wire encoding); W <= 8 keeps the 4-bit single-extension
   space; wider windows use the second extension byte's full 8-bit
   space. Each tier satisfies space >= 2W, so cumulative acks can never
   be confused with live sequence numbers. *)
let seq_space t =
  let w = transport_window t in
  if w = 1 then 2 else if w <= 8 then 16 else 256

(* Client-side pipelining depth for the block-transfer facilities
   (stream/multicast double buffering, §4.4.1): keep one request slot in
   reserve so control traffic is never locked out by MAXREQUESTS. *)
let client_window t = max 1 (t.maxrequests - 1)

(* ---- Congestion control (AIMD + Jacobson RTT estimation) ----
   Pure arithmetic lives here so the transport's control laws are
   unit-testable without a bus: the transport feeds acks, losses and
   RTT samples through these and stores the resulting floats. The
   constants are the classic ones: cwnd starts at 2 packets, grows by 1
   per clean cumulative ack, and the estimator uses the RFC 6298 gains
   1/8 (mean) and 1/4 (variance). *)

let initial_cwnd = 2
let aimd_incr = 1.0
let rtt_alpha = 0.125
let rtt_beta = 0.25

(* Initial congestion window, clamped into [1, W]. *)
let cwnd_init t = float_of_int (max 1 (min initial_cwnd (transport_window t)))

(* Additive increase: one clean cumulative ack grows cwnd by [aimd_incr],
   capped by the cost-model window so cwnd never exceeds what the
   sequence space can express. *)
let aimd_increase t ~cwnd =
  Float.min (float_of_int (transport_window t)) (cwnd +. aimd_incr)

(* Multiplicative decrease: halve on retransmission-timer expiry, but
   never below one packet in flight (the alternating-bit floor). *)
let aimd_decrease _t ~cwnd = Float.max 1.0 (cwnd /. 2.0)

(* Jacobson/Karels estimator. srtt_us = 0.0 means "no sample yet": the
   first sample seeds the mean directly and the variance at half the
   sample, exactly as in RFC 6298. Returns (srtt', rttvar'). *)
let rtt_update _t ~srtt_us ~rttvar_us ~sample_us =
  let sample = float_of_int sample_us in
  if srtt_us <= 0.0 then (sample, sample /. 2.0)
  else
    let err = Float.abs (srtt_us -. sample) in
    let rttvar' = ((1.0 -. rtt_beta) *. rttvar_us) +. (rtt_beta *. err) in
    let srtt' = ((1.0 -. rtt_alpha) *. srtt_us) +. (rtt_alpha *. sample) in
    (srtt', rttvar')

(* Retransmission timeout derived from the estimator, floored at the
   static retransmit interval so an adaptive sender never fires earlier
   than the fixed-schedule one did. *)
let rto_us t ~srtt_us ~rttvar_us =
  if srtt_us <= 0.0 then t.retrans_interval_us
  else
    max t.retrans_interval_us (int_of_float (srtt_us +. (4.0 *. rttvar_us)))

(* [acc] plus the retransmission intervals from the [i]th on, the [i]th
   being [interval] and each next one [retrans_backoff] times longer. A
   top-level loop: a local one is a closure over [t], made per call. *)
let rec sum_intervals t i interval acc =
  if i >= t.max_retrans then acc
  else
    sum_intervals t (i + 1)
      (int_of_float (float_of_int interval *. t.retrans_backoff))
      (acc + interval)

let r_us t = sum_intervals t 0 t.retrans_interval_us 0

let delta_t_us t = t.mpl_us + r_us t + t.ack_grace_us

let record_expiry_us t = t.mpl_us + delta_t_us t

let crash_quarantine_us t = (2 * t.mpl_us) + delta_t_us t

let data_copy_us t ~bytes =
  (* Round up to whole words; the PDP copies words, not bytes. *)
  let words = (bytes + t.word_bytes - 1) / t.word_bytes in
  words * t.copy_word_us

