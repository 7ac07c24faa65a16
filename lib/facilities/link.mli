(** Virtual circuits ("links") with transparent link moving (§4.2.4).

    A link is a duplex logical channel whose ends can be rebound to other
    clients after establishment. Each client that participates runs a link
    manager: a LINK_SERVICE entry plus a table mapping locally advertised
    patterns to the remote end's <machine, pattern>.

    Protocol (the paper's, §4.2.4, with the introduction step made
    explicit):
    - establishing/receiving an end: EXCHANGE on LINK_SERVICE carrying the
      remote end's address; the new holder mints and returns a fresh
      pattern for its end;
    - arg -1 on a link: "let me become MASTER" (only the MASTER may move
      its end; the grant demotes the granter to SLAVE);
    - arg -2: "your partner end has moved; here is its new address";
    - arg -3: "your freshly installed end is fully wired; you may send";
    - arg -4: "the link is destroyed";
    - arg >= 0: user data; REJECTed while the receiving end is moving, in
      which case the sender reissues once the -2 update arrives. *)

module Types = Soda_base.Types
module Sodal = Soda_runtime.Sodal

(** Local link-end identifier (small integer index, as in the paper). *)
type id = int

type manager

(** [spec ?on_data manager] builds a client program participating in the
    link protocol. [on_data env mgr link ~arg data] handles user messages
    arriving on [link] and returns the bytes sent back (for EXCHANGEs;
    return [Bytes.empty] otherwise). [task] is the client's own task. *)
val spec :
  ?init:(Sodal.env -> manager -> parent:int -> unit) ->
  ?on_data:(Sodal.env -> manager -> id -> arg:int -> bytes -> bytes) ->
  ?task:(Sodal.env -> manager -> unit) ->
  unit ->
  manager * Sodal.spec

(** {1 Operations (task context)} *)

(** [introduce env mgr ~a ~b] — the introducer (who knows both machines)
    wires a fresh link between clients [a] and [b]; [a] holds the MASTER
    end. Returns nothing at the introducer: the ends belong to a and b. *)
val introduce : Sodal.env -> a:int -> b:int -> unit

(** [links mgr] — currently installed local ends. *)
val links : manager -> id list

(** [send env mgr link ~arg data] sends user data over the link (a
    blocking PUT), transparently reissuing while the far end moves.
    [`Destroyed] if the link was torn down or the holder crashed. *)
val send : Sodal.env -> manager -> id -> ?arg:int -> bytes -> [ `Ok | `Destroyed ]

(** [move env mgr link ~to_machine] moves our end of [link] to another
    client (which must also run a link manager), transparently to the
    partner (§4.2.4). Our local end disappears. *)
val move : Sodal.env -> manager -> id -> to_machine:int -> unit

(** [destroy env mgr link] tears the link down; the partner learns on its
    next send (or immediately via the -4 notification). *)
val destroy : Sodal.env -> manager -> id -> unit

(** Blocks until this manager holds at least [n] installed ends (used by
    freshly introduced parties). *)
val wait_for_links : Sodal.env -> manager -> n:int -> unit
