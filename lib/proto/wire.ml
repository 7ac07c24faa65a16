module Pattern = Soda_base.Pattern

type err_code = Err_unadvertised | Err_crashed | Err_cancelled

type view = { buf : bytes; off : int; len : int }

let no_data = { buf = Bytes.empty; off = 0; len = 0 }

let view_prefix v n = if v.len <= n then v else { v with len = max 0 n }
let view_len v = v.len

type 'data body_of =
  | Request of {
      tid : int;
      pattern : Pattern.t;
      arg : int;
      put_size : int;
      get_size : int;
      data : 'data;
      retry : bool;
    }
  | Accept of {
      tid : int;
      arg : int;
      put_transferred : int;
      need_put_data : bool;
      data : 'data;
    }
  | Put_data of { tid : int; data : 'data }
  | Ack
  | Busy of { tid : int }
  | Error of { tid : int; code : err_code }
  | Cancel_request of { tid : int }
  | Cancel_reply of { tid : int; ok : bool }
  | Probe of { tid : int }
  | Probe_reply of { tid : int; alive : bool }
  | Discover of { tid : int; pattern : Pattern.t }
  | Discover_reply of { tid : int }

type body = bytes body_of
type rx_body = view body_of

type 'data packet = {
  src : int;
  reliable : bool;
  seq : int;
  ack : int option;
  run : bool;
      (* first packet of a send run: every earlier slot is acknowledged, so a
         receiver with no connection record may safely synchronise its window
         base here (Delta-t's run flag). Never set at window 1. *)
  body : 'data body_of;
}

type t = bytes packet
type rx = view packet

(* Sequence numbers are 8-bit (space 256, window <= 64), spread over the
   seed's original flag positions plus up to two extension bytes so that
   narrower configurations keep their historical encodings byte for byte:
   - bit 0 lives in the seed's flag positions (0x02 seq / 0x08 ack);
   - bits 1-3 live in a first extension byte, present (flag 0x40) only
     when nonzero — exactly the 4-bit layout windows <= 8 have always
     used, so their packets stay byte-identical;
   - bits 4-7 live in a second extension byte whose presence is
     signalled by bit 6 (0x40) of the first.
   A window-1 node's packets remain byte-identical to the seed's
   alternating-bit encoding. *)
let seq_mask = 0xFF

(* The acks a packet can carry, each made at its first use: a packet's
   [ack] field is one of them, not an option allocated per packet. The
   table grows to the sequence space in use: two entries at window 1,
   all 256 (about 6 KB) at window 64. *)
let acks = ref [||]

let rec space_for n size = if n < size then size else space_for n (2 * size)

let ack_of n =
  if n < 0 then None
  else begin
    let n = n land seq_mask in
    if n >= Array.length !acks then begin
      let grown = Array.make (space_for n 2) None in
      Array.blit !acks 0 grown 0 (Array.length !acks);
      acks := grown
    end;
    match !acks.(n) with
    | Some _ as a -> a
    | None ->
      let a = Some n in
      !acks.(n) <- a;
      a
  end

(* --- encoding helpers ------------------------------------------------- *)

(* Offset writers: each takes a position and returns the next one, so
   [encode_into] fills a caller-supplied (typically pooled) buffer without
   any intermediate [Buffer]. *)

let w8 b p v =
  Bytes.set b p (Char.chr (v land 0xFF));
  p + 1

let w16 b p v =
  let p = w8 b p (v lsr 8) in
  w8 b p v

let w32 b p v =
  let p = w16 b p (v lsr 16) in
  w16 b p v

let wi32 b p v = w32 b p (v land 0xFFFFFFFF)

let w48 b p v =
  let p = w16 b p (v lsr 32) in
  w32 b p v

let wdata b p data =
  let len = Bytes.length data in
  let p = w32 b p len in
  Bytes.blit data 0 b p len;
  p + len

(* Fixed-position readers over [b.[p .. lim - 1]]: a field that would
   run past [lim] raises [Truncated]. Nothing is allocated but a data
   field's view. *)

exception Truncated

(* A field the codec refuses, with its message. *)
exception Malformed of string

let u8 b lim p =
  if p + 1 > lim then raise Truncated;
  Char.code (Bytes.get b p)

let u16 b lim p =
  if p + 2 > lim then raise Truncated;
  (Char.code (Bytes.get b p) lsl 8) lor Char.code (Bytes.get b (p + 1))

let u32 b lim p = (u16 b lim p lsl 16) lor u16 b lim (p + 2)

let i32 b lim p =
  let v = u32 b lim p in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let u48 b lim p = (u16 b lim p lsl 32) lor u32 b lim (p + 2)

(* A length-prefixed data field at [p], as a view into [b]; a
   zero-length one is the shared [no_data]. *)
let data_field b lim p =
  let len = u32 b lim p in
  if len < 0 || p + 4 + len > lim then raise Truncated;
  if len = 0 then no_data else { buf = b; off = p + 4; len }

(* --- kinds ------------------------------------------------------------ *)

(* The codes follow the order of [Event.pkts]. *)
let kind = function
  | Request _ -> 1
  | Accept _ -> 2
  | Put_data _ -> 3
  | Ack -> 4
  | Busy _ -> 5
  | Error _ -> 6
  | Cancel_request _ -> 7
  | Cancel_reply _ -> 8
  | Probe _ -> 9
  | Probe_reply _ -> 10
  | Discover _ -> 11
  | Discover_reply _ -> 12

let pkt_by_kind = Array.of_list Soda_obs.Event.pkts

let pkt body = pkt_by_kind.(kind body - 1)

let tid = function
  | Request { tid; _ }
  | Accept { tid; _ }
  | Put_data { tid; _ }
  | Busy { tid }
  | Error { tid; _ }
  | Cancel_request { tid }
  | Cancel_reply { tid; _ }
  | Probe { tid }
  | Probe_reply { tid; _ }
  | Discover { tid; _ }
  | Discover_reply { tid } -> tid
  | Ack -> Soda_obs.Event.no_tid

let err_to_int = function Err_unadvertised -> 0 | Err_crashed -> 1 | Err_cancelled -> 2

let err_of_int = function
  | 0 -> Ok Err_unadvertised
  | 1 -> Ok Err_crashed
  | 2 -> Ok Err_cancelled
  | n -> Error (Printf.sprintf "bad error code %d" n)

(* --- encode ----------------------------------------------------------- *)

(* Second extension byte: seq bits 4-7 in the low nibble, ack bits 4-7
   in the high nibble. Zero (and thus absent) whenever both numbers fit
   in 4 bits, which keeps every window<=8 packet on the old format. *)
let seq_ext2 t =
  let seq_hi = (t.seq land seq_mask) lsr 4 in
  let ack_hi = match t.ack with None -> 0 | Some a -> (a land seq_mask) lsr 4 in
  seq_hi lor (ack_hi lsl 4)

(* First extension byte: seq bits 1-3, ack bits 1-3, and bit 6 marking
   the presence of the second extension byte. *)
let seq_ext t =
  let seq_mid = (t.seq land 0x0F) lsr 1 in
  let ack_mid = match t.ack with None -> 0 | Some a -> (a land 0x0F) lsr 1 in
  seq_mid lor (ack_mid lsl 3) lor (if seq_ext2 t <> 0 then 0x40 else 0)

let flags t ~retry ~need_put_data =
  (if t.reliable then 0x01 else 0)
  lor (if t.seq land 1 <> 0 then 0x02 else 0)
  lor (match t.ack with None -> 0 | Some _ -> 0x04)
  lor (match t.ack with Some a when a land 1 <> 0 -> 0x08 | _ -> 0)
  lor (if retry then 0x10 else 0)
  lor (if need_put_data then 0x20 else 0)
  lor (if seq_ext t <> 0 then 0x40 else 0)
  lor if t.run then 0x80 else 0

(* Exact wire size of a packet, kept in lockstep with the encoder below:
   4 header bytes (kind, flags, src), up to two optional extension
   bytes, then the body: the frame's length less its CRC trailer. [dlen]
   measures a data field (a sender's bytes, or a decoded view). *)
let body_size dlen = function
  | Request { data; _ } -> 6 + 6 + 4 + 4 + 4 + 4 + dlen data
  | Accept { data; _ } -> 6 + 4 + 4 + 4 + dlen data
  | Put_data { data; _ } -> 6 + 4 + dlen data
  | Ack -> 0
  | Busy _ | Cancel_request _ | Probe _ | Discover_reply _ -> 6
  | Error _ | Cancel_reply _ | Probe_reply _ -> 7
  | Discover _ -> 12

let encoded_size t =
  4
  + (if seq_ext t <> 0 then 1 else 0)
  + (if seq_ext2 t <> 0 then 1 else 0)
  + body_size Bytes.length t.body

(* Zero-copy encoder: writes the packet into [buf] starting at [off] and
   returns the number of bytes written (always [encoded_size t]). The
   caller guarantees capacity; [Bytes.set] still bounds-checks. *)
let encode_into t buf ~off =
  let retry = match t.body with Request { retry; _ } -> retry | _ -> false in
  let need_put_data =
    match t.body with Accept { need_put_data; _ } -> need_put_data | _ -> false
  in
  let p = off in
  let p = w8 buf p (kind t.body) in
  let p = w8 buf p (flags t ~retry ~need_put_data) in
  let p = w16 buf p t.src in
  let p = if seq_ext t <> 0 then w8 buf p (seq_ext t) else p in
  let p = if seq_ext2 t <> 0 then w8 buf p (seq_ext2 t) else p in
  let p =
    match t.body with
    | Request { tid; pattern; arg; put_size; get_size; data; retry = _ } ->
      let p = w48 buf p tid in
      let p = w48 buf p (Pattern.to_int pattern) in
      let p = wi32 buf p arg in
      let p = w32 buf p put_size in
      let p = w32 buf p get_size in
      wdata buf p data
    | Accept { tid; arg; put_transferred; need_put_data = _; data } ->
      let p = w48 buf p tid in
      let p = wi32 buf p arg in
      let p = w32 buf p put_transferred in
      wdata buf p data
    | Put_data { tid; data } ->
      let p = w48 buf p tid in
      wdata buf p data
    | Ack -> p
    | Busy { tid } -> w48 buf p tid
    | Error { tid; code } ->
      let p = w48 buf p tid in
      w8 buf p (err_to_int code)
    | Cancel_request { tid } -> w48 buf p tid
    | Cancel_reply { tid; ok } ->
      let p = w48 buf p tid in
      w8 buf p (if ok then 1 else 0)
    | Probe { tid } -> w48 buf p tid
    | Probe_reply { tid; alive } ->
      let p = w48 buf p tid in
      w8 buf p (if alive then 1 else 0)
    | Discover { tid; pattern } ->
      let p = w48 buf p tid in
      w48 buf p (Pattern.to_int pattern)
    | Discover_reply { tid } -> w48 buf p tid
  in
  p - off

let encode t =
  let size = encoded_size t in
  let buf = Bytes.create size in
  let written = encode_into t buf ~off:0 in
  assert (written = size);
  buf

(* --- decode ----------------------------------------------------------- *)

(* Decode the packet occupying [bytes.[off .. off+len-1]] — the payload
   view of a frame buffer — without copying the slice first. Every field
   sits at a position fixed by the header, so each is read in place; the
   packet's last byte must be the body's. *)
let decode_sub bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    Stdlib.Error "bad slice"
  else
  let b = bytes and lim = off + len in
  try
    let kind = u8 b lim off in
    let flags = u8 b lim (off + 1) in
    let src = u16 b lim (off + 2) in
    let reliable = flags land 0x01 <> 0 in
    let ext = if flags land 0x40 <> 0 then u8 b lim (off + 4) else 0 in
    let ext2 = if ext land 0x40 <> 0 then u8 b lim (off + 5) else 0 in
    let p = off + 4 + (if flags land 0x40 <> 0 then 1 else 0) + if ext land 0x40 <> 0 then 1 else 0 in
    let seq =
      (if flags land 0x02 <> 0 then 1 else 0)
      lor ((ext land 0x07) lsl 1)
      lor ((ext2 land 0x0F) lsl 4)
    in
    let ack =
      if flags land 0x04 <> 0 then
        ack_of
          ((if flags land 0x08 <> 0 then 1 else 0)
           lor (((ext lsr 3) land 0x07) lsl 1)
           lor (((ext2 lsr 4) land 0x0F) lsl 4))
      else None
    in
    let retry = flags land 0x10 <> 0 in
    let need_put_data = flags land 0x20 <> 0 in
    let run = flags land 0x80 <> 0 in
    let body =
      match kind with
      | 1 ->
        let tid = u48 b lim p in
        let pattern = Pattern.of_int (u48 b lim (p + 6)) in
        let arg = i32 b lim (p + 12) in
        let put_size = u32 b lim (p + 16) in
        let get_size = u32 b lim (p + 20) in
        Request { tid; pattern; arg; put_size; get_size; data = data_field b lim (p + 24); retry }
      | 2 ->
        let tid = u48 b lim p in
        let arg = i32 b lim (p + 6) in
        let put_transferred = u32 b lim (p + 10) in
        Accept { tid; arg; put_transferred; need_put_data; data = data_field b lim (p + 14) }
      | 3 ->
        let tid = u48 b lim p in
        Put_data { tid; data = data_field b lim (p + 6) }
      | 4 -> Ack
      | 5 -> Busy { tid = u48 b lim p }
      | 6 ->
        let tid = u48 b lim p in
        (match err_of_int (u8 b lim (p + 6)) with
         | Ok code -> Error { tid; code }
         | Error e -> raise (Malformed e))
      | 7 -> Cancel_request { tid = u48 b lim p }
      | 8 ->
        let tid = u48 b lim p in
        Cancel_reply { tid; ok = u8 b lim (p + 6) <> 0 }
      | 9 -> Probe { tid = u48 b lim p }
      | 10 ->
        let tid = u48 b lim p in
        Probe_reply { tid; alive = u8 b lim (p + 6) <> 0 }
      | 11 ->
        let tid = u48 b lim p in
        Discover { tid; pattern = Pattern.of_int (u48 b lim (p + 6)) }
      | 12 -> Discover_reply { tid = u48 b lim p }
      | n -> raise (Malformed (Printf.sprintf "unknown packet kind %d" n))
    in
    if p + body_size view_len body <> lim then Stdlib.Error "trailing bytes"
    else Ok { src; reliable; seq; ack; run; body }
  with
  | Truncated -> Error "truncated packet"
  | Malformed msg | Invalid_argument msg -> Error msg

let decode bytes = decode_sub bytes ~off:0 ~len:(Bytes.length bytes)

let data_bytes = function
  | Request { data; _ } | Accept { data; _ } | Put_data { data; _ } -> Bytes.length data
  | Ack | Busy _ | Error _ | Cancel_request _ | Cancel_reply _ | Probe _ | Probe_reply _
  | Discover _ | Discover_reply _ -> 0

let truncate data n = if Bytes.length data <= n then data else Bytes.sub data 0 n

let describe t =
  let body =
    match t.body with
    | Request { tid; data; retry; _ } ->
      Printf.sprintf "REQ#%d%s%s" (tid land 0xFFFF)
        (if Bytes.length data > 0 then Printf.sprintf "+%dB" (Bytes.length data) else "")
        (if retry then " (retry)" else "")
    | Accept { tid; data; need_put_data; _ } ->
      Printf.sprintf "ACCEPT#%d%s%s" (tid land 0xFFFF)
        (if Bytes.length data > 0 then Printf.sprintf "+%dB" (Bytes.length data) else "")
        (if need_put_data then " (need-data)" else "")
    | Put_data { tid; data } -> Printf.sprintf "DATA#%d+%dB" (tid land 0xFFFF) (Bytes.length data)
    | Ack -> "ACK"
    | Busy { tid } -> Printf.sprintf "BUSY#%d" (tid land 0xFFFF)
    | Error { tid; code } ->
      Printf.sprintf "ERR#%d:%s" (tid land 0xFFFF)
        (match code with
         | Err_unadvertised -> "unadvertised"
         | Err_crashed -> "crashed"
         | Err_cancelled -> "cancelled")
    | Cancel_request { tid } -> Printf.sprintf "CANCEL#%d" (tid land 0xFFFF)
    | Cancel_reply { tid; ok } -> Printf.sprintf "CANCEL-R#%d:%b" (tid land 0xFFFF) ok
    | Probe { tid } -> Printf.sprintf "PROBE#%d" (tid land 0xFFFF)
    | Probe_reply { tid; alive } -> Printf.sprintf "PROBE-R#%d:%b" (tid land 0xFFFF) alive
    | Discover { tid; _ } -> Printf.sprintf "DISCOVER#%d" (tid land 0xFFFF)
    | Discover_reply { tid } -> Printf.sprintf "DISCOVER-R#%d" (tid land 0xFFFF)
  in
  let ack = match t.ack with None -> "" | Some a -> Printf.sprintf "+ack(%d)" a in
  Printf.sprintf "%s%s" body ack

let pp ppf t = Format.pp_print_string ppf (describe t)
