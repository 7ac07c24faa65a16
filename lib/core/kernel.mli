(** The SODA kernel: client-facing semantics of the ten primitives (§3).

    One [Kernel.t] per node. The kernel owns the advertisement table, the
    handler state machine (OPEN/CLOSED x BUSY/IDLE plus the queued
    completion interrupts of §3.7.5), MAXREQUESTS accounting, the reserved
    patterns (KILL / BOOT / LOAD / SYSTEM) and the boot state machine of
    §3.5; the network state machines live in [Soda_proto.Transport].

    The client processor is represented by a {!client} record of hooks;
    [Soda_runtime] builds one from effect-based task/handler fibers. *)

module Types = Soda_base.Types
module Pattern = Soda_base.Pattern

type t

(** Hooks into the attached client processor. *)
type client = {
  invoke_handler : Types.handler_event -> unit;
      (** Run the client handler. The client must eventually call
          {!endhandler}. The kernel guarantees no overlapping invocations. *)
  on_kill : unit -> unit;
      (** The client was terminated (KILL/LOAD signal or DIE); stop all
          client activity immediately. *)
}

val create :
  engine:Soda_sim.Engine.t ->
  bus:Soda_net.Bus.t ->
  recorder:Soda_obs.Recorder.t ->
  cost:Soda_base.Cost_model.t ->
  mid:int ->
  boot_kinds:int list ->
  t

val mid : t -> int
val engine : t -> Soda_sim.Engine.t
val cost : t -> Soda_base.Cost_model.t
val stats : t -> Soda_obs.Metrics.t

(** The node's transport, for introspection by the test suites. *)
val transport : t -> Soda_proto.Transport.t

(** The network-shared structured-event recorder, for client-level
    facilities that emit typed events (e.g. the replicated store). *)
val recorder : t -> Soda_obs.Recorder.t

val client_alive : t -> bool

(** [attach_client t ~parent client] installs a resident client (ROM boot,
    §3.5.3) and schedules its [Booting] handler invocation. Boot patterns
    are withdrawn while a client runs.
    @raise Invalid_argument if a client is already attached. *)
val attach_client : t -> parent:int -> client -> unit

(** [set_boot_program t f] registers the program started when a remote
    parent boots this node over the network: after the LOAD-pattern SIGNAL,
    [f ~parent ~image] must return the client hooks. *)
val set_boot_program : t -> (parent:int -> image:bytes -> client) -> unit

(** {1 The ten primitives}

    Buffer contract (§3.3.2 rule 1). The kernel keeps no copy of a
    client buffer: a payload is copied only from the client's buffer
    into a frame (when the transport encodes it) and from a frame into
    the client's buffer (the kernel's blit at completion or at the
    ACCEPT's end). So a requester must leave [put] and [get_buffer]
    alone until the request completes or is cancelled, and an accepter
    must leave [put] and [get_buffer] alone until [on_done]. *)

type request_error =
  | Too_many_requests  (** MAXREQUESTS uncompleted requests (§3.3.2) *)
  | Request_to_self  (** no local messages (§3.3) *)
  | Data_too_large  (** exceeds the kernel buffer; no multipackets (§6.17.4) *)
  | Client_dead

(** [request t ~server ~arg ~put ~get_buffer] — non-blocking REQUEST.
    [put] is read in place when the transport encodes it, until
    completion; the kernel fills [get_buffer] from the ACCEPT's frame
    before the completion interrupt. A [Broadcast_mid] target performs DISCOVER:
    matching mids are stored in [get_buffer] as big-endian 16-bit words. *)
val request :
  t ->
  server:Types.server_signature ->
  arg:int ->
  put:bytes ->
  get_buffer:bytes ->
  (Types.tid, request_error) result

(** [accept t ~requester ~arg ~get_buffer ~put ~on_done] — blocking ACCEPT
    (bounded time). Requester put-data lands in [get_buffer], copied
    from its frame; [put] is sent by reference, read when the ACCEPT is
    encoded (and again if retransmitted) until [on_done]; [on_done]
    receives the status and the byte count received. *)
val accept :
  t ->
  requester:Types.requester_signature ->
  arg:int ->
  get_buffer:bytes ->
  put:bytes ->
  on_done:(Types.accept_status * int -> unit) ->
  unit

(** [cancel t ~requester ~on_done] — CANCEL one of our own requests.
    [on_done true] iff no completion will ever be delivered for it. *)
val cancel : t -> requester:Types.requester_signature -> on_done:(bool -> unit) -> unit

val advertise : t -> Pattern.t -> (unit, [ `Reserved_pattern ]) result
val unadvertise : t -> Pattern.t -> (unit, [ `Reserved_pattern ]) result
val advertised : t -> Pattern.t -> bool
val getuniqueid : t -> Pattern.t

val open_handler : t -> unit
val close_handler : t -> unit

(** The client handler returned; deliver queued completion interrupts and
    re-offer any pipeline-buffered request. *)
val endhandler : t -> unit

(** DIE (§3.5.1): reset kernel state, clear advertisements, fail remote
    requests, re-advertise boot patterns. *)
val die : t -> unit

(** {1 Fault injection} *)

(** [crash t] — undetectable-by-software hardware death: the NIC goes
    silent, all kernel state is lost. After the Delta-t quarantine
    (2 MPL + Delta-t) the node rejoins with boot patterns advertised. *)
val crash : t -> unit

(** [destroy t] — permanent teardown: like {!crash} but the node never
    rejoins and its bus station is released, so [Network.reboot_node] can
    attach a fresh incarnation under the same mid. *)
val destroy : t -> unit

(** [quarantine t] — hold a freshly created incarnation silent for the
    §5.4 reboot quarantine (2 MPL + Delta-t), then rejoin. *)
val quarantine : t -> unit

(** {1 Causal identity}

    All of these are inert (return [None] / store [None]) unless the
    network's recorder was created with causal tracing on; minting only
    bumps counters, so simulated timing is identical either way. *)

(** Root span for a client-visible operation (e.g. one store op). *)
val mint_causal_root : t -> Soda_obs.Causal.ctx option

(** [set_causal_parent t ctx] makes every subsequent REQUEST trap mint
    its span as a child of [ctx] instead of a fresh root — this is how a
    multi-request operation (quorum fan-out, retries, failover) hangs
    under one tree. Pass [None] to restore per-trap roots. *)
val set_causal_parent : t -> Soda_obs.Causal.ctx option -> unit

val causal_parent : t -> Soda_obs.Causal.ctx option
