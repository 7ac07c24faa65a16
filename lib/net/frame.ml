type dst = To of int | Broadcast

(* [ctx] is simulated out-of-band metadata: causal identity rides the
   frame value, never the wire bytes, so tracing cannot perturb CRC,
   timing or the golden byte-level trace. *)
type t = { src : int; dst : dst; wire : bytes; len : int; ctx : Soda_obs.Causal.ctx option }

let dst_matches dst ~mid =
  match dst with
  | To m -> m = mid
  | Broadcast -> true
