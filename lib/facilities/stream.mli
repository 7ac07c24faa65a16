(** Multipacket streams as a library (§6.17.4).

    SODA messages are bounded by the kernel buffer; "arbitrarily long
    transmissions are supportable by higher-level protocols that packetize
    and reassemble large blocks of data", and the paper reports that
    client-driven streaming performs well (§5.5's large-words rows are the
    per-chunk cost). This module is that protocol: a sender slices a block
    into chunks and PUTs them in order — keeping up to MAXREQUESTS-1 chunks
    in flight for double buffering — with a final zero-length end marker;
    the receiver reassembles using the chunk index carried in the REQUEST
    argument.

    Because SODA already guarantees per-peer ordering and exactly-once
    delivery, reassembly needs no sequence checking of its own; the index
    is used only to detect protocol misuse. *)

module Types = Soda_base.Types
module Sodal = Soda_runtime.Sodal

(** Receiver side: [sink ~pattern ~on_block] yields a complete server spec
    whose handler reassembles incoming streams (one concurrent stream per
    sending machine) and calls [on_block] with each finished block. *)
val sink :
  pattern:Soda_base.Pattern.t ->
  on_block:(Sodal.env -> src:int -> bytes -> unit) ->
  unit ->
  Sodal.spec

type error =
  | Receiver_gone  (** the sink crashed or unadvertised mid-stream *)
  | Rejected

(** [send env dst data ~chunk_bytes] streams [data] to the sink at [dst].
    Blocks until the final chunk is acknowledged. *)
val send :
  Sodal.env ->
  Types.server_signature ->
  ?chunk_bytes:int ->
  bytes ->
  (unit, error) result
