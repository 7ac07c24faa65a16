(** The sending half of a connection: one sliding window per peer.

    Reliable messages wait in a FIFO send queue and are launched into
    the slots of the modular sequence space [Cost.seq_space], at most
    [Cost.transport_window] unacknowledged at once (fewer with AIMD:
    [min(cwnd, window)]). The window owns every sending decision: slot
    assignment, cumulative acks, each launched message's retransmission
    deadline with its randomised exponential backoff and Karn state, the
    Jacobson RTT estimator, the congestion window, and the BUSY backoff
    of a refused REQUEST. The transport hands it messages and feeds it
    the peer's acks, BUSYs, ERRORs and CANCEL replies; each message's
    outcome is reported once, unless the node resets first.

    A window holds no timer: its deadlines, its BUSY-backoff wake, the
    hold of the ack it owes and its output copies are entries of lines
    shared by the node's windows, each reserving its event id where a
    timer of its own would have been armed. *)

type kind = K_request | K_accept | K_put_data | K_cancel

type outcome =
  | Out_acked
  | Out_error of Wire.err_code
  | Out_cancel_reply of bool
  | Out_timeout  (** [max_retrans] retransmissions went unanswered *)

(** Per-node state the windows share among themselves: the ack walk's
    scratch and the timed lines (made at their first use). *)
type shared

(** [shared stats] lists the protocol time in [stats], at 0. *)
val shared : Soda_obs.Metrics.t -> shared

(** What the windows of one node share with the transport. *)
type env = {
  engine : Soda_sim.Engine.t;
  bus : Soda_net.Bus.t;  (** for the line time and backlog in the RTO *)
  cost : Soda_base.Cost_model.t;
  rng : Soda_sim.Rng.t;  (** RTO and BUSY-backoff jitter *)
  stats : Soda_obs.Metrics.t;
  recorder : Soda_obs.Recorder.t;
  event : Soda_obs.Event.kind -> unit;  (** emit a structured event *)
  transmit : int -> seq:int -> run:bool -> Wire.body -> unit;
      (** [transmit peer ~seq ~run body] puts a reliable packet on the wire *)
  ack_due : int -> unit;
      (** [ack_due peer]: the ack owed to [peer] was held its time and no
          packet carried it: send it alone *)
  shared : shared;  (** made once per node, from [stats] *)
}

type t

val create : env -> peer:int -> t

(** The node's window of no peer: it has no slots, and nothing may be
    sent on it. A filler for arrays of windows. *)
val nobody : env -> t

(** Does a BUSY or an unadvertised ERROR consume the refused message's
    sequence number? At window > 1 the receiver consumes it to keep its
    window gap-free, and the retry launches in a fresh slot; at window 1
    it does not, and the retry reuses the slot (the alternating bit). *)
val rejection_consumes : Soda_base.Cost_model.t -> bool

(** [send w kind ~tid body on_done] queues a message and launches what
    the window allows. Granted DATA ([K_put_data]) goes ahead of queued
    requests. The outcome is reported as [on_done peer tid outcome], so
    one function made once can serve every message of a kind. *)
val send : t -> kind -> tid:int -> Wire.body -> (int -> int -> outcome -> unit) -> unit

(** A cumulative ack: the peer consumed every slot up to this one. *)
val ack : t -> int -> unit

(** [busy w ~tid requeue]: the peer refused [tid]'s REQUEST. Once its
    slot is resolved, [requeue ()] is asked whether to retry it; if so it
    goes back to the head of the queue and backs off. *)
val busy : t -> tid:int -> (unit -> bool) -> unit

(** [error w ~tid code] resolves the oldest launched message for [tid]
    with [Out_error code]; false when none is launched. *)
val error : t -> tid:int -> Wire.err_code -> bool

(** The peer's reply to our CANCEL of [tid]. *)
val cancel_reply : t -> tid:int -> bool -> unit

(** Is a message of this kind (and [tid]) waiting in the send queue? *)
val queued : t -> ?tid:int -> kind -> bool

(** Take [tid]'s queued messages of this kind out of the send queue, and
    launch what they held back. *)
val drop_queued : t -> tid:int -> kind -> unit

(** Something is queued or unacknowledged. *)
val active : t -> bool

(** [reset env]: the node resets. Every entry of its windows' lines
    (deadlines, BUSY wakes, ack holds and copies under way) is dropped,
    so no callback of a window made before the reset runs again. Those
    windows must be dropped with it: their fields still name entries
    that are gone, and none of them may be sent on or reused. *)
val reset : env -> unit

(** Nothing is queued or launched, no ack is owed, and no entry of this
    window waits in a line: [reuse] may take it. *)
val quiet : t -> bool

(** [reuse w ~peer] makes the quiet [w] a window to [peer] in exactly the
    state [create env ~peer] gives: slots, queue, cwnd, RTT estimate,
    Karn shift and parked ack start over, and it behaves event for event
    as a fresh window would. It allocates nothing.
    @raise Invalid_argument when [w] is not [quiet]. *)
val reuse : t -> peer:int -> unit

(** {2 The owed ack}

    The cumulative ack a connection owes its peer for what it consumed
    waits for the next packet to the peer to carry it, for at most a
    hold; then [env.ack_due] sends it alone. A transmission that waits
    out a data copy holds the standalone ack back meanwhile, since it
    will carry the ack, and owes it again for the grace window
    ([ack_grace_us]) if the transmission is called off. *)

(** [owe_ack w ~hold seq]: the peer is owed the ack of [seq]. An ack
    owed already keeps its hold, and its time. *)
val owe_ack : t -> hold:int -> int -> unit

(** The owed ack for a packet about to go out, or -1: the packet carries
    it, and it is owed no longer. *)
val take_ack : t -> int

(** The owed ack, or -1; nothing changes. *)
val owed_ack : t -> int

(** [(srtt_us, rttvar_us)] once a Karn-clean sample has been taken. *)
val rtt_estimate_us : t -> (int * int) option
