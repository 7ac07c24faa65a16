(* Slicing-by-8 (Kounavis & Berry, ISCC 2005). [tab.(k * 256 + b)] is the
   CRC contribution of byte [b] followed by [k] zero bytes, for k = 0..7;
   row 0 is the classic bytewise table. The CRC is linear, so eight bytes
   fold in at once as the XOR of eight independent lookups, with the
   register's high and low bytes XORed into the first two. *)
let tab =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let crc = ref (b lsl 8) in
    for _ = 0 to 7 do
      if !crc land 0x8000 <> 0 then crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
      else crc := (!crc lsl 1) land 0xFFFF
    done;
    t.(b) <- !crc
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let x = t.(((k - 1) * 256) + b) in
      t.((k * 256) + b) <- ((x lsl 8) land 0xFFFF) lxor t.(x lsr 8)
    done
  done;
  t

(* Unchecked loads: [compute] checks its whole range once, up front. A
   top-level function, not a closure over the buffer, so the loop
   allocates nothing. *)
let[@inline] byte bytes i = Char.code (Bytes.unsafe_get bytes i)
let[@inline] row k i = Array.unsafe_get tab ((k * 256) + i)

let compute bytes ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Crc16.compute: range outside the buffer";
  let stop = off + len in
  let crc = ref 0xFFFF and i = ref off in
  while !i + 8 <= stop do
    let p = !i and c = !crc in
    crc :=
      row 7 ((c lsr 8) lxor byte bytes p)
      lxor row 6 ((c land 0xFF) lxor byte bytes (p + 1))
      lxor row 5 (byte bytes (p + 2))
      lxor row 4 (byte bytes (p + 3))
      lxor row 3 (byte bytes (p + 4))
      lxor row 2 (byte bytes (p + 5))
      lxor row 1 (byte bytes (p + 6))
      lxor row 0 (byte bytes (p + 7));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    crc := ((!crc lsl 8) land 0xFFFF) lxor row 0 ((!crc lsr 8) lxor byte bytes p)
  done;
  !crc

let append payload =
  let len = Bytes.length payload in
  let wire = Bytes.create (len + 2) in
  Bytes.blit payload 0 wire 0 len;
  let crc = compute payload ~off:0 ~len in
  Bytes.set wire len (Char.chr (crc lsr 8));
  Bytes.set wire (len + 1) (Char.chr (crc land 0xFF));
  wire

let seal wire ~len =
  if len < 0 || Bytes.length wire < len + 2 then
    invalid_arg "Crc16.seal: buffer too small for payload + trailer";
  let crc = compute wire ~off:0 ~len in
  Bytes.set wire len (Char.chr (crc lsr 8));
  Bytes.set wire (len + 1) (Char.chr (crc land 0xFF))

let screen wire ~len:total =
  if total > Bytes.length wire then invalid_arg "Crc16.screen: frame longer than its buffer";
  if total < 2 then -1
  else begin
    let len = total - 2 in
    let expected = compute wire ~off:0 ~len in
    let stored =
      (Char.code (Bytes.get wire len) lsl 8) lor Char.code (Bytes.get wire (len + 1))
    in
    if expected = stored then len else -1
  end

let payload_len wire = screen wire ~len:(Bytes.length wire)

let check wire =
  match payload_len wire with
  | -1 -> None
  | len -> Some (Bytes.sub wire 0 len)
