(** Simulated broadcast bus (CompuNet Megalink, §5).

    The bus is a shared serial medium: one transmission at a time, a
    bandwidth-determined transmission delay, and a small propagation delay.
    Queued senders acquire the medium in request order, which stands in for
    the Megalink's fair line-access discipline (§6.10 relies on line access
    completing in bounded time).

    Fault injection: frames may be lost outright or have a byte corrupted
    in flight; corrupted frames are later discarded by the receiving NIC's
    CRC check, so both faults look like loss to the transport, exercising
    the alternating-bit retransmission machinery. *)

type t

type config = {
  bandwidth_bps : int;  (** 1_000_000 for the Megalink *)
  propagation_us : int;  (** per-hop propagation delay *)
  frame_overhead_bytes : int;  (** preamble + link header, charged per frame *)
  loss_rate : float;  (** probability a frame vanishes *)
  corruption_rate : float;  (** probability a frame is damaged in flight *)
}

val default_config : config

val create : ?config:config -> ?obs:Soda_obs.Recorder.t -> Soda_sim.Engine.t -> t

val engine : t -> Soda_sim.Engine.t
val stats : t -> Soda_obs.Metrics.t

(** The medium's shared frame-buffer pool. Hot-path senders acquire
    buffers here, seal them ({!Crc16.seal}) and hand them to {!transmit}.
    The bus releases a frame that reaches no station, and a broadcast
    frame after its sweep; a delivered unicast frame's buffer belongs to
    its receiver. See docs/PERFORMANCE.md for the ownership rules. *)
val pool : t -> Pool.t

(** Current configuration (fault-rate setters mutate it in place). *)
val config : t -> config

(** Every station on one medium must use the same reliable-protocol send
    window: the receive-side sequence arithmetic is derived from the local
    window, so stations with different windows — and hence possibly
    different sequence-space widths (2 at window 1, 16 up to window 8,
    256 above) — cannot interoperate. The first claim pins the medium's
    window.
    @raise Invalid_argument when a later claim disagrees; the message
    names both stations' windows and derived sequence spaces. *)
val claim_seq_window : t -> window:int -> unit

(** Set the per-delivery frame-loss probability.
    @raise Invalid_argument unless the rate is within [0, 1]. *)
val set_loss_rate : t -> float -> unit

(** Set the per-delivery corruption probability.
    @raise Invalid_argument unless the rate is within [0, 1]. *)
val set_corruption_rate : t -> float -> unit

(** {2 Fault-plan hooks}

    Scripted faults used by {!Soda_fault.Injector}. All of them are
    deterministic: random draws come from the bus's split fault RNG, so a
    run remains a pure function of the engine seed. *)

(** [set_partition t (group_a, group_b)] installs a network cut: frames
    whose source and destination sit in opposite groups are dropped at
    delivery time (so frames already in flight are eaten too). Mids in
    neither group are unaffected. Replaces any previous cut.
    @raise Invalid_argument if a mid appears in both groups. *)
val set_partition : t -> int list * int list -> unit

(** Remove the current partition, if any. *)
val heal : t -> unit

val partitioned : t -> bool

(** [duplicate_next ?count t] arranges for the next [count] (default 1)
    frames entering the medium to be delivered twice; the copy, with
    bytes of its own, trails the original like a stale retransmission.
    @raise Invalid_argument on negative [count]. *)
val duplicate_next : ?count:int -> t -> unit

(** [set_delay_jitter t ~min_us ~max_us] adds a per-frame random delivery
    delay drawn from [min_us..max_us]; frames may reorder. [(0, 0)]
    disables jitter.
    @raise Invalid_argument unless [0 <= min_us <= max_us]. *)
val set_delay_jitter : t -> min_us:int -> max_us:int -> unit

(** [transmission_time_us t ~payload_bytes] is the time the medium is held
    for a frame of that size (including overhead and CRC trailer). *)
val transmission_time_us : t -> payload_bytes:int -> int

(** [backlog_us t] is how long from now until the medium finishes every
    frame already queued on it: a frame sent now starts no earlier. Zero
    when the medium is idle. *)
val backlog_us : t -> int

(** [attach t ~mid ~rx] registers a station. [rx] receives every frame
    whose destination matches [mid] (or broadcast), after loss and
    corruption have been applied; CRC checking is the receiver's job.
    A unicast frame's buffer is [rx]'s once delivered (it may release it
    to {!pool}); a broadcast frame's is not, and [rx] must keep no view
    of it. A given [mid] may be attached only once.
    @raise Invalid_argument on duplicate [mid]. *)
val attach : t -> mid:int -> rx:(Frame.t -> unit) -> unit

val detach : t -> mid:int -> unit

(** [send t ?ctx ~src ~dst payload] copies [payload] into a pooled
    frame, seals it and queues it for transmission. Delivery happens after queueing +
    transmission + propagation delay. Frames from one source to one
    destination are delivered in order (the medium is serial). [ctx]
    rides the frame as out-of-band causal metadata (it survives
    duplication and jitter but is not part of the wire bytes). *)
val send : t -> ?ctx:Soda_obs.Causal.ctx -> src:int -> dst:Frame.dst -> bytes -> unit

(** [transmit t frame] is {!send} for a sealed frame: [frame.wire]
    carries its CRC trailer ({!Crc16.seal}) at [frame.len - 2] and comes
    from {!pool}; its ownership transfers to the bus. The sender must not
    touch it after this call. Identical timing, fault handling and
    statistics to {!send} (payload size is [frame.len - 2]).
    @raise Invalid_argument if [frame.len] is shorter than the 2-byte
    trailer or longer than the buffer. *)
val transmit : t -> Frame.t -> unit
