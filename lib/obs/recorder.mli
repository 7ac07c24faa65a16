(** The per-network event sink shared by every layer.

    When tracing is disabled, [emit] is one branch; hot call sites guard
    with [tracing] before building the event payload so a disabled
    recorder costs neither time nor allocation. The recorder also owns a
    {!Metrics.t} registry for network-global measurements. *)

type t

val create : ?tracing:bool -> unit -> t

val tracing : t -> bool
val set_tracing : t -> bool -> unit

val metrics : t -> Metrics.t

(** Causal-context minting (off by default). When off, [mint_root] and
    [mint_child] return [None], so instrumentation sites stamp nothing
    and the event stream is identical to a pre-causal recorder's. *)
val causal : t -> bool

val set_causal : t -> bool -> unit

(** Fresh trace id + root span for a client-visible operation. *)
val mint_root : t -> Causal.ctx option

(** Fresh span under [parent] (same trace id). *)
val mint_child : t -> Causal.ctx -> Causal.ctx option

val emit : t -> ?ctx:Causal.ctx -> time_us:int -> mid:int -> Event.kind -> unit

(** Events in chronological order (same-instant events keep emission
    order). *)
val events : t -> Event.t list

val length : t -> int
val clear : t -> unit
