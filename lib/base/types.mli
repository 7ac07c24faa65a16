(** Shared SODA vocabulary (§3.1, §3.7). *)

(** Machine id: network-wide unique node identifier. Machine 0 is the
    privileged node allowed to alter reserved patterns (§3.5.4). *)
type mid = int

(** Transaction id, unique per issuing node across all time (§3.3.1). *)
type tid = int

(** <MID, TID>: uniquely identifies a request across the network. *)
type requester_signature = { rq_mid : mid; rq_tid : tid }

(** Destination of a REQUEST: a specific machine or the BROADCAST
    identifier used by DISCOVER (§3.4.4). *)
type target = Mid of mid | Broadcast_mid

(** <MID, PATTERN>: names a service entry point. *)
type server_signature = { sv_mid : target; sv_pattern : Pattern.t }

(** Status returned by ACCEPT (§3.7.4). *)
type accept_status =
  | Accept_success
  | Accept_cancelled  (** request was cancelled or already completed *)
  | Accept_crashed  (** requester crashed (or died) before/after issue *)

(** How a REQUEST completed, as seen by the requester's handler (§3.7.6). *)
type completion_status =
  | Completed  (** ACCEPTed; argument and transfer counts are valid *)
  | Crashed  (** server crashed before accepting *)
  | Unadvertised  (** pattern not advertised at the server *)

(** Arguments passed to the client handler on invocation (§3.7.6). *)
type handler_event =
  | Request_arrival of {
      requester : requester_signature;
      pattern : Pattern.t;  (** the SERVER SIGNATURE pattern used *)
      arg : int;
      put_size : int;  (** bytes offered by the requester *)
      get_size : int;  (** bytes the requester can receive *)
    }
  | Request_completion of {
      requester : requester_signature;  (** our own <mid, tid> *)
      status : completion_status;
      arg : int;  (** the ACCEPT argument (valid when [Completed]) *)
      put_transferred : int;  (** bytes that went requester -> server *)
      get_transferred : int;  (** bytes that went server -> requester *)
    }
  | Booting of { parent : mid }

val broadcast : target

val requester_signature_equal : requester_signature -> requester_signature -> bool

val pp_requester_signature : Format.formatter -> requester_signature -> unit
