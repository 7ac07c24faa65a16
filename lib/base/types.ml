type mid = int
type tid = int

type requester_signature = { rq_mid : mid; rq_tid : tid }

type target = Mid of mid | Broadcast_mid

type server_signature = { sv_mid : target; sv_pattern : Pattern.t }

type accept_status = Accept_success | Accept_cancelled | Accept_crashed

type completion_status = Completed | Crashed | Unadvertised

type handler_event =
  | Request_arrival of {
      requester : requester_signature;
      pattern : Pattern.t;
      arg : int;
      put_size : int;
      get_size : int;
    }
  | Request_completion of {
      requester : requester_signature;
      status : completion_status;
      arg : int;
      put_transferred : int;
      get_transferred : int;
    }
  | Booting of { parent : mid }

let broadcast = Broadcast_mid

let requester_signature_equal a b = a.rq_mid = b.rq_mid && a.rq_tid = b.rq_tid

let pp_requester_signature ppf { rq_mid; rq_tid } =
  Format.fprintf ppf "<%d,#%d>" rq_mid rq_tid
