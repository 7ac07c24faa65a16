(** Bidding support as a library (§6.17.5).

    DISCOVER returns the set of advertisers but no way to discriminate
    among them. The paper sketches the extension: let servers report how
    busy they are, and let requesters pick the least loaded. We build it
    without kernel changes: each bidding server also advertises a BID entry
    derived from its service pattern, answering a GET with its current
    load; [select] discovers all advertisers, collects bids, and returns
    the lowest bidder. *)

module Types = Soda_base.Types
module Sodal = Soda_runtime.Sodal

(** Server side: [serve_bids env ~pattern ~load] advertises both the
    service pattern and its BID entry; arriving bid GETs are answered from
    [load ()]. Call from the Initialization section; bids are answered by
    the returned request-hook, which must be invoked from [on_request]
    (returns true when it consumed the request). *)
val serve_bids :
  Sodal.env ->
  pattern:Soda_base.Pattern.t ->
  load:(unit -> int) ->
  (Sodal.env -> Sodal.request_info -> bool)

(** [select env ~pattern] returns the least-loaded advertiser (ties to the
    lowest mid), with its reported load. [None] if nobody advertises. *)
val select :
  Sodal.env -> pattern:Soda_base.Pattern.t -> ?max_bidders:int -> unit ->
  (Types.server_signature * int) option
