(** Calibrated timing model of the experimental SODA node (§5).

    The paper's numbers come from PDP-11/23 kernels (~170k instructions/s)
    on a 1 Mbit/s Megalink. Every cost here is virtual microseconds charged
    to the simulation clock, attributed to one of the categories of the
    paper's "Breakdown of Communications Overhead" table so that the bench
    can regenerate that table from first principles:

    per SIGNAL (2 packets, 4 kernel packet events, 2 handler interrupts):
    - connection timers: 4 x 250 us = 1.0 ms
    - retransmit timers: 4 x 175 us = 0.7 ms
    - context switch:    2 x 400 us = 0.8 ms
    - transmission:      2 x ~208 us = 0.4 ms
    - client overhead:   700 + 700 + 2 x 400 = 2.2 ms
    - protocol:          4 x 500 us = 2.0 ms
    - total ~= 7.1 ms (paper: 7.1 ms)

    The per-word slope of PUT (~40 us/word: two kernel copies at 12 us/word
    plus 16 us/word of 1 Mbit/s line time) reproduces the ~40 ms/1000-word
    slope of the performance tables. *)

type category =
  | Conn_timer  (** maintaining Delta-t connection timers *)
  | Retrans_timer  (** arming/cancelling retransmission timers *)
  | Context_switch  (** handler interrupt entry/exit *)
  | Transmission  (** time on the wire *)
  | Client_overhead  (** traps, descriptor pool locking, handler client code *)
  | Protocol  (** kernel per-packet protocol processing and data copies *)

val label : category -> string
val all_categories : category list

type t = {
  (* sizes *)
  word_bytes : int;
  header_bytes : int;  (** wire header, before any data *)
  max_data_bytes : int;  (** kernel input/output buffer capacity *)
  (* per-event CPU costs *)
  packet_protocol_us : int;  (** per packet sent or received by a kernel *)
  conn_timer_us : int;  (** per packet: Delta-t record upkeep *)
  retrans_timer_us : int;  (** per packet: retransmission timer upkeep *)
  context_switch_us : int;  (** per handler interrupt *)
  request_trap_us : int;  (** client overhead of the REQUEST primitive *)
  accept_trap_us : int;  (** client overhead of the ACCEPT primitive *)
  small_trap_us : int;  (** OPEN/CLOSE/ADVERTISE/... primitives *)
  handler_client_us : int;  (** client code bracketing a handler body *)
  copy_word_us : int;  (** one client<->kernel buffer copy, per word *)
  (* reliability timers *)
  ack_grace_us : int;  (** delayed-ACK window hoping to piggyback (§5.2.3) *)
  retrans_interval_us : int;  (** initial retransmission timeout *)
  retrans_backoff : float;  (** multiplier per retry *)
  max_retrans : int;  (** retries before declaring the peer crashed *)
  busy_retry_us : int;  (** initial retry interval after a BUSY nack *)
  busy_retry_backoff : float;  (** adaptive slowdown (§5.2.2) *)
  busy_retry_max_us : int;
  probe_interval_us : int;  (** delivered-request liveness probes (§3.6.2) *)
  probe_miss_limit : int;
  mpl_us : int;  (** maximum packet lifetime (Delta-t) *)
  (* naming *)
  discover_window_us : int;  (** how long DISCOVER collects replies *)
  discover_stagger_us : int;  (** per-mid reply stagger (§5.3) *)
  (* kernel policy *)
  maxrequests : int;  (** MAXREQUESTS (§3.3.2) *)
  pipelined : bool;  (** hold-in-input-buffer variant (§5.2.3) *)
  associative_patterns : bool;
      (** true: ideal §3.4 table; false: 256-slot overwrite table of §5.4 *)
  window : int;
      (** transport send/receive window W per peer-direction; 1 = the
          paper's alternating bit (the default, wire-compatible with the
          seed), up to [max_window] *)
  (* congestion control *)
  aimd : bool;
      (** adapt the effective send window per connection (AIMD); only
          meaningful when [window > 1] — window-1 runs always behave
          exactly like the seed's alternating bit *)
}

val default : t

(** The non-pipelined kernel of the first performance table. *)
val non_pipelined : t

(** Largest supported transport window (bounded by the 8-bit wire field:
    the sequence space must be at least 2W, and 2 x 64 <= 256). *)
val max_window : int

(** [window] clamped to [1, max_window]. *)
val transport_window : t -> int

(** Modular sequence-number space, tiered to match the wire encoding:
    2 when the window is 1 (the seed's 1-bit encoding), 16 for windows
    up to 8 (the single-extension-byte format), 256 above that (second
    extension byte). Always at least twice the window. *)
val seq_space : t -> int

(** Pipelining depth the block-transfer facilities use per destination:
    MAXREQUESTS - 1, leaving one slot for control traffic (§4.4.1). *)
val client_window : t -> int

(** Initial congestion window (2 packets) as a float, clamped to [1, W]. *)
val cwnd_init : t -> float

(** [aimd_increase t ~cwnd] after one clean cumulative ack: cwnd grows
    by 1, capped at the cost-model window. *)
val aimd_increase : t -> cwnd:float -> float

(** [aimd_decrease t ~cwnd] after a retransmission-timer expiry: cwnd
    halves, floored at 1.0 (stop-and-wait, never zero). *)
val aimd_decrease : t -> cwnd:float -> float

(** [rtt_update t ~srtt_us ~rttvar_us ~sample_us] folds one RTT sample
    into the Jacobson/Karels estimator (gains 1/8 for the mean, 1/4 for
    the variance) and returns [(srtt', rttvar')].
    [srtt_us <= 0.0] means "no sample yet": the first sample seeds the
    mean and half-sample variance (RFC 6298). *)
val rtt_update : t -> srtt_us:float -> rttvar_us:float -> sample_us:int -> float * float

(** Retransmission timeout from the estimator state: srtt + 4 rttvar,
    floored at [retrans_interval_us] (an adaptive sender never fires
    earlier than the fixed schedule). With no sample yet, exactly
    [retrans_interval_us]. *)
val rto_us : t -> srtt_us:float -> rttvar_us:float -> int

(** Total span of retransmissions, R (for Delta-t intervals). *)
val r_us : t -> int

(** Delta-t = MPL + R + A (§5.2.2). *)
val delta_t_us : t -> int

(** Connection-record lifetime: MPL + Delta-t of silence. *)
val record_expiry_us : t -> int

(** Reboot quarantine after a crash: 2 MPL + Delta-t. *)
val crash_quarantine_us : t -> int

(** [data_copy_us t ~bytes] cost of one client<->kernel copy. *)
val data_copy_us : t -> bytes:int -> int

