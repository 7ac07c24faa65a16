(* Codec for SCD-broadcast FORWARD frames. These bytes travel, one or
   more frames per transfer, as the opaque put-payload of ordinary
   REQUEST packets, so the layout is private to lib/scd; it still gets
   the same defensive checking as Wire so a corrupted or truncated frame
   is rejected, never misread. *)

type payload =
  | Write of { reg : int; value : int; date : int; writer : int }
  | Incr of { delta : int; origin : int; oseq : int }
  | Sync

type forward = { sd : int; sn : int; f : int; snf : int; payload : payload }

(* Layout (big-endian):
     [tag:1][sd:2][sn:4][f:2][snf:4] then per-tag payload fields.
   Member ids fit u16 (the simulator scales to thousands of nodes);
   sequence numbers fit i32; values and deltas are full 64-bit ints. *)

let header_size = 13

let payload_size = function
  | Write _ -> 2 + 8 + 4 + 2
  | Incr _ -> 8 + 4 + 4
  | Sync -> 0

let encoded_size fwd = header_size + payload_size fwd.payload

let tag_of_payload = function Write _ -> 0 | Incr _ -> 1 | Sync -> 2

let check_u16 what v =
  if v < 0 || v > 0xFFFF then invalid_arg (Printf.sprintf "Scd_wire: %s out of range" what)

let check_i32 what v =
  if v < -0x80000000 || v > 0x7FFFFFFF then
    invalid_arg (Printf.sprintf "Scd_wire: %s out of range" what)

let encode fwd =
  check_u16 "sd" fwd.sd;
  check_i32 "sn" fwd.sn;
  check_u16 "f" fwd.f;
  check_i32 "snf" fwd.snf;
  let b = Bytes.create (encoded_size fwd) in
  Bytes.set b 0 (Char.chr (tag_of_payload fwd.payload));
  Bytes.set_uint16_be b 1 fwd.sd;
  Bytes.set_int32_be b 3 (Int32.of_int fwd.sn);
  Bytes.set_uint16_be b 7 fwd.f;
  Bytes.set_int32_be b 9 (Int32.of_int fwd.snf);
  (match fwd.payload with
  | Write { reg; value; date; writer } ->
    check_u16 "reg" reg;
    check_i32 "date" date;
    check_u16 "writer" writer;
    Bytes.set_uint16_be b 13 reg;
    Bytes.set_int64_be b 15 (Int64.of_int value);
    Bytes.set_int32_be b 23 (Int32.of_int date);
    Bytes.set_uint16_be b 27 writer
  | Incr { delta; origin; oseq } ->
    check_i32 "origin" origin;
    check_i32 "oseq" oseq;
    Bytes.set_int64_be b 13 (Int64.of_int delta);
    Bytes.set_int32_be b 21 (Int32.of_int origin);
    Bytes.set_int32_be b 25 (Int32.of_int oseq)
  | Sync -> ());
  b

(* ---- batches, read in place --------------------------------------------- *)

(* A batch is frames back to back with no count field: each entry's
   length follows from its tag. [check] walks the whole buffer before a
   receiver reads any entry, so a bad entry anywhere rejects all of it
   and a receiver never acts on part of a corrupted transfer. Its errors
   are constants: checking allocates nothing. *)

let i32 b o = Int32.to_int (Bytes.get_int32_be b o)

(* payload length per tag; -1 for an unknown tag *)
let payload_len tag = if tag = 0 || tag = 1 then 16 else if tag = 2 then 0 else -1

let check b =
  let len = Bytes.length b in
  let rec entries o =
    if o = len then Ok ()
    else if len - o < header_size then Error "scd frame: truncated header"
    else
      let need = payload_len (Char.code (Bytes.get b o)) in
      if need < 0 then Error "scd frame: unknown tag"
      else if len - o - header_size < need then Error "scd frame: truncated payload"
      else entries (o + header_size + need)
  in
  if len = 0 then Error "scd frame: empty batch" else entries 0

let next b o = o + header_size + payload_len (Char.code (Bytes.get b o))
let sd b o = Bytes.get_uint16_be b (o + 1)
let sn b o = i32 b (o + 3)
let f b o = Bytes.get_uint16_be b (o + 7)
let snf b o = i32 b (o + 9)

let kind b o : Soda_obs.Event.scd_payload =
  match Char.code (Bytes.get b o) with 0 -> Payload_write | 1 -> Payload_incr | _ -> Payload_sync

let reg b o = Bytes.get_uint16_be b (o + 13)
let value b o = Int64.to_int (Bytes.get_int64_be b (o + 15))
let date b o = i32 b (o + 23)
let writer b o = Bytes.get_uint16_be b (o + 27)
let delta b o = Int64.to_int (Bytes.get_int64_be b (o + 13))
let origin b o = i32 b (o + 21)
let oseq b o = i32 b (o + 25)

let forward b o =
  let payload =
    match kind b o with
    | Payload_write ->
      Write { reg = reg b o; value = value b o; date = date b o; writer = writer b o }
    | Payload_incr -> Incr { delta = delta b o; origin = origin b o; oseq = oseq b o }
    | Payload_sync -> Sync
  in
  { sd = sd b o; sn = sn b o; f = f b o; snf = snf b o; payload }

let restamp b o ~f ~snf =
  check_u16 "f" f;
  check_i32 "snf" snf;
  let e = Bytes.sub b o (next b o - o) in
  Bytes.set_uint16_be e 7 f;
  Bytes.set_int32_be e 9 (Int32.of_int snf);
  e

let payload_kind : payload -> Soda_obs.Event.scd_payload = function
  | Write _ -> Payload_write
  | Incr _ -> Payload_incr
  | Sync -> Payload_sync

let pp ppf fwd =
  Format.fprintf ppf "FORWARD(sd=%d sn=%d f=%d snf=%d %s" fwd.sd fwd.sn fwd.f fwd.snf
    (Soda_obs.Event.scd_payload_name (payload_kind fwd.payload));
  (match fwd.payload with
  | Write { reg; value; date; writer } ->
    Format.fprintf ppf " reg=%d value=%d date=%d writer=%d" reg value date writer
  | Incr { delta; origin; oseq } ->
    Format.fprintf ppf " delta=%d origin=%d oseq=%d" delta origin oseq
  | Sync -> ());
  Format.fprintf ppf ")"

let equal (a : forward) (b : forward) = a = b
