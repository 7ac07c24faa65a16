(** Builder for a simulated SODA network: the engine, the broadcast bus and
    a set of nodes, each a kernel processor awaiting (or running) a client.

    Typical use:
    {[
      let net = Network.create ~seed:1 () in
      let server = Network.add_node net ~mid:1 in
      let client = Network.add_node net ~mid:2 in
      (* attach clients via Soda_runtime.Node *)
      Network.run_for net ~duration:1_000_000
    ]} *)

type t

(** [causal] turns on causal-context minting in the shared recorder:
    traps and deliveries are stamped with trace/span/parent ids that
    cross nodes on frame metadata. Off by default; minting never
    schedules engine work, so enabling it changes no simulated timing. *)
val create :
  ?seed:int ->
  ?cost:Soda_base.Cost_model.t ->
  ?bus_config:Soda_net.Bus.config ->
  ?trace:bool ->
  ?causal:bool ->
  unit ->
  t

val engine : t -> Soda_sim.Engine.t
val bus : t -> Soda_net.Bus.t

(** The structured-event recorder shared by every node and the bus. *)
val recorder : t -> Soda_obs.Recorder.t

val cost : t -> Soda_base.Cost_model.t

(** [add_node t ~mid] creates a node with the network's cost model.
    [boot_kinds] describes the client processor type for the BOOT patterns
    (§3.5.2); defaults to [[0]].
    @raise Invalid_argument on duplicate mid. *)
val add_node : ?boot_kinds:int list -> t -> mid:int -> Kernel.t

val node : t -> mid:int -> Kernel.t
val nodes : t -> (int * Kernel.t) list

(** {2 Fault injection}

    Whole-node crash/reboot, driven mid-workload by fault plans
    ([Soda_fault]). [crash_node] permanently tears a node down — client
    killed, kernel state lost, bus station released — and removes it from
    {!nodes}. [reboot_node] then creates a *fresh* kernel incarnation under
    the same mid with a fresh boot epoch, so §5.4 staleness classification
    answers pre-crash TIDs with CRASHED. By default the new incarnation
    observes the 2·MPL + Delta-t reboot quarantine before rejoining;
    [~quarantine:false] skips it (useful in deterministic regressions).
    Emits {!Soda_obs.Event.Fault_crash} / [Fault_reboot] when tracing. *)

(** @raise Invalid_argument if [mid] does not exist. *)
val crash_node : t -> mid:int -> unit

(** @raise Invalid_argument if [mid] is still running. *)
val reboot_node : ?quarantine:bool -> t -> mid:int -> Kernel.t

(** [run t] processes events until quiescence (or [until], virtual us). *)
val run : ?until:int -> t -> int

val run_for : t -> duration:int -> int

val now : t -> int
