(** SODA wire format.

    Every kernel-to-kernel message is one of these packets, really encoded
    to bytes before hitting the simulated bus (so transmission time, CRC
    corruption and codec bugs are all exercised for real).

    The protocol follows §5.2.2–§5.2.3 of the paper:
    - [Request] carries put-direction data only on its first transmission;
      retries are flagged and dataless;
    - [Accept] is both the server's data transfer and (usually) the
      piggybacked acknowledgement of the REQUEST;
    - [Busy] is the NACK returned when the server handler (and, in the
      non-pipelined kernel, the input buffer) is unavailable;
    - [Put_data] re-supplies put-direction data that was wasted on a
      transmission that met a busy handler (the "DATA+ACK" packet of the
      six-packet EXCHANGE trace);
    - [Probe]/[Probe_reply] implement delivered-request monitoring (§3.6.2);
    - [Discover]/[Discover_reply] implement broadcast name lookup (§3.4.4). *)

type err_code =
  | Err_unadvertised  (** pattern not advertised at destination *)
  | Err_crashed  (** transaction predates a crash/reboot *)
  | Err_cancelled  (** transaction cancelled or already completed *)

(** [len] bytes of [buf] from [off]. A decoded packet's data is a view
    into its frame's buffer, not a copy: it is valid while the receiver
    holds the frame (see [Transport] and docs/PERFORMANCE.md). *)
type view = { buf : bytes; off : int; len : int }

(** The empty view, shared: every data field of length 0 decodes to it. *)
val no_data : view

(** [view_prefix v n]: the first [n] bytes of [v], or [v] itself when it
    is no longer: a transfer moves at most what the receiving buffer
    holds (§3.3.2). *)
val view_prefix : view -> int -> view

(** A packet body whose data fields have type ['data]: [bytes] in a
    packet built to send ({!body}), a {!view} in one decoded ({!rx_body}). *)
type 'data body_of =
  | Request of {
      tid : int;
      pattern : Soda_base.Pattern.t;
      arg : int;
      put_size : int;  (** bytes the requester is offering *)
      get_size : int;  (** bytes the requester can receive *)
      data : 'data;  (** put data; empty on retries *)
      retry : bool;
    }
  | Accept of {
      tid : int;
      arg : int;
      put_transferred : int;  (** bytes of put data the server is taking *)
      need_put_data : bool;  (** true when the put data was wasted and must be resent *)
      data : 'data;  (** get-direction data *)
    }
  | Put_data of { tid : int; data : 'data }
  | Ack
  | Busy of { tid : int }
  | Error of { tid : int; code : err_code }
  | Cancel_request of { tid : int }
  | Cancel_reply of { tid : int; ok : bool }
  | Probe of { tid : int }
  | Probe_reply of { tid : int; alive : bool }
  | Discover of { tid : int; pattern : Soda_base.Pattern.t }
  | Discover_reply of { tid : int }

(** A body built to send: its data is the sender's own buffer. *)
type body = bytes body_of

(** A decoded body: its data is a view into the frame. *)
type rx_body = view body_of

type 'data packet = {
  src : int;  (** sender machine id *)
  reliable : bool;  (** sender retransmits until acknowledged *)
  seq : int;
      (** modular sequence number, 0..255 (meaningful when
          [reliable]); the window-1 degenerate case only ever uses 0/1 and
          encodes exactly as the original alternating bit *)
  ack : int option;  (** piggybacked cumulative acknowledgement *)
  run : bool;
      (** first packet of a send run (nothing else outstanding when it was
          launched): a receiver holding no connection record may synchronise
          its window base on it. Windowed (> 1) transports only; the
          window-1 encoding never sets the flag. *)
  body : 'data body_of;
}

(** A packet built to send. *)
type t = bytes packet

(** A packet decoded from a frame. *)
type rx = view packet

(** [ack_of n] is [None] for a negative [n], else [Some (n land 255)],
    shared: a packet's ack costs no allocation. *)
val ack_of : int -> int option

(** Exact number of bytes {!encode} produces for [t] (header, up to two
    optional extension bytes, body): the frame's length less its CRC
    trailer. Lets callers size a pooled frame up front. *)
val encoded_size : t -> int

(** [encode_into t buf ~off] writes the packet at [buf.[off ..]] and
    returns the byte count (always [encoded_size t]). The buffer must
    have room for [encoded_size t] bytes at [off]; used with pooled
    frame buffers so encoding allocates nothing. *)
val encode_into : t -> bytes -> off:int -> int

val encode : t -> bytes

(** [decode bytes] is [decode_sub bytes ~off:0 ~len:(Bytes.length bytes)]:
    its data fields view [bytes]. *)
val decode : bytes -> (rx, string) result

(** [decode_sub bytes ~off ~len] decodes the packet occupying exactly
    [bytes.[off .. off+len-1]] — the payload view of a frame buffer —
    reading every field in place: a data field becomes a {!view} of
    [bytes], never a copy. Rejects trailing bytes within the slice, like
    {!decode}. *)
val decode_sub : bytes -> off:int -> len:int -> (rx, string) result

(** Number of payload-data bytes carried (for accounting). *)
val data_bytes : body -> int

(** [truncate data n]: the first [n] bytes of [data], or [data] itself
    when it is no longer: a transfer moves at most what the receiving
    buffer holds (§3.3.2). *)
val truncate : bytes -> int -> bytes

(** The wire's kind code, from 1: its position in
    {!Soda_obs.Event.pkts}. *)
val kind : 'data body_of -> int

(** The kind as traced. *)
val pkt : 'data body_of -> Soda_obs.Event.pkt

(** The transaction a body names; [Event.no_tid] for a bare ACK. *)
val tid : 'data body_of -> int

(** Short human-readable form for traces: "REQ#12+800B" etc. *)
val describe : t -> string

val pp : Format.formatter -> t -> unit
