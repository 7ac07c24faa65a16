(** Per-node network interface.

    The NIC performs the two cheap screening steps the paper assigns to the
    line interface (§6.12): destination-MID filtering (done by the bus
    delivery fan-out) and CRC verification — a frame with a bad CRC is
    simply discarded (§5.2.2). Good payloads are handed to the attached
    kernel. *)

type t

(** [attach ?stats bus ~mid ~rx] creates the station; [rx] receives
    verified payload bytes together with the sender's mid and whether the
    frame was broadcast. When [stats] is given, CRC-failed frames also
    increment its ["nic.crc_drops"] counter, so the drop count surfaces in
    the node's metrics registry. *)
val attach :
  ?stats:Soda_obs.Metrics.t ->
  Bus.t ->
  mid:int ->
  rx:(src:int -> broadcast:bool -> ctx:Soda_obs.Causal.ctx option -> bytes -> unit) ->
  t

(** Zero-copy variant of {!attach}: [rx] receives the frame's wire buffer
    and the verified payload length instead of a [Bytes.sub] copy — the
    payload is [wire.[0 .. len-1]]. A unicast frame's buffer is [rx]'s:
    it may keep views of it, and releases it to {!Bus.pool} once it keeps
    none (one never released costs only an allocation). A broadcast
    frame's buffer stays the bus's, which recycles it after this
    delivery: [rx] must finish reading before returning and keep no view
    of it. *)
val attach_view :
  ?stats:Soda_obs.Metrics.t ->
  Bus.t ->
  mid:int ->
  rx:
    (src:int ->
    broadcast:bool ->
    ctx:Soda_obs.Causal.ctx option ->
    wire:bytes ->
    len:int ->
    unit) ->
  t

val mid : t -> int

(** [send t ?ctx ~dst payload] transmits to a specific machine; [ctx] is
    out-of-band causal metadata riding the frame (see {!Frame.t}). *)
val send : t -> ?ctx:Soda_obs.Causal.ctx -> dst:int -> bytes -> unit

(** [broadcast t ?ctx payload] transmits to every station. *)
val broadcast : t -> ?ctx:Soda_obs.Causal.ctx -> bytes -> unit

(** Frames dropped by this NIC due to CRC failure. *)
val crc_drops : t -> int

(** Stop delivering frames (simulates powering the node down). *)
val disable : t -> unit

val enable : t -> unit
