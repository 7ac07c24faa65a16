(** Link-layer frames on the simulated broadcast bus. *)

type dst =
  | To of int  (** a specific machine id *)
  | Broadcast  (** the special broadcast identifier recognised by all NICs *)

type t = {
  src : int;  (** sending machine id *)
  dst : dst;
  wire : bytes;
      (** payload plus CRC trailer in [wire.[0 .. len-1]], possibly
          corrupted in flight; the bytes past [len] are the pooled
          buffer's spare capacity and carry nothing *)
  len : int;  (** the frame's length on the wire, trailer included *)
  ctx : Soda_obs.Causal.ctx option;
      (** Causal identity of the sending span, carried out of band (frame
          metadata, not wire bytes): invisible to CRC, corruption and the
          golden byte-level trace. *)
}

val dst_matches : dst -> mid:int -> bool
