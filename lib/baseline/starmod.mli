(** The comparison baseline: *MOD-style remote port calls (§2.2.5, §5.5).

    Leblanc measured *MOD message primitives on the same PDP-11/Megalink
    hardware as SODA: a synchronous remote port call took 20.7 ms and an
    asynchronous port call 11.1 ms, versus SODA's 8.5/10.0 ms blocking and
    4.9/5.8 ms non-blocking SIGNALs. The structural difference is the
    multiprogrammed kernel: every message crosses a user/kernel boundary,
    is buffered in kernel space, demultiplexed to the right process, and
    waits for the scheduler — and the simple transport acks every packet
    separately instead of piggybacking.

    This module reproduces that structure over the same simulated bus:
    ports with kernel-side message queues, per-message process wakeups, a
    stop-and-wait transport with standalone acks, and cost constants
    matching a multiprogrammed PDP-11 kernel. *)

type node

type cost = {
  trap_us : int;  (** user->kernel boundary crossing *)
  packet_us : int;  (** kernel protocol work per packet sent or received *)
  buffer_copy_us : int;  (** kernel-space message buffering, per message *)
  schedule_us : int;  (** scheduler + context switch to wake a process *)
  dispatch_us : int;  (** port demultiplexing per delivered message *)
}

val create_node :
  engine:Soda_sim.Engine.t -> bus:Soda_net.Bus.t -> mid:int -> ?cost:cost -> unit -> node

val stats : node -> Soda_obs.Metrics.t

(** [define_port node ~port f] — messages to [port] run [f payload]; a
    [Some reply] is sent back to a synchronous caller. *)
val define_port : node -> port:int -> (bytes -> bytes option) -> unit

(** Synchronous remote port call: blocks (callback) until the reply
    arrives. *)
val sync_call : node -> dst:int -> port:int -> bytes -> on_reply:(bytes -> unit) -> unit

(** Asynchronous port call: [on_done] fires when the message has been
    delivered into the remote port queue (transport-acknowledged). *)
val async_send : node -> dst:int -> port:int -> bytes -> on_done:(unit -> unit) -> unit
