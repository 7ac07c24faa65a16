module Wire = Soda_proto.Wire
module Pattern = Soda_base.Pattern
module Event = Soda_obs.Event

let b = Bytes.of_string

let roundtrip pkt =
  match Wire.decode (Wire.encode pkt) with
  | Ok pkt' -> pkt'
  | Error e -> Alcotest.failf "decode failed: %s" e

let mk ?(src = 3) ?(reliable = false) ?(seq = 0) ?ack ?(run = false) body =
  { Wire.src; reliable; seq; ack; run; body }

let check_rt name pkt = Alcotest.(check bool) name true (roundtrip pkt = pkt)

let test_roundtrip_request () =
  check_rt "request with data"
    (mk ~reliable:true ~seq:1 ~ack:0
       (Wire.Request
          {
            tid = 0xAB_0000_1234;
            pattern = Pattern.well_known 0o346;
            arg = -42;
            put_size = 5;
            get_size = 100;
            data = b "hello";
            retry = false;
          }));
  check_rt "dataless retry"
    (mk ~reliable:true
       (Wire.Request
          {
            tid = 1;
            pattern = Pattern.kill_pattern;
            arg = 0;
            put_size = 5;
            get_size = 0;
            data = Bytes.empty;
            retry = true;
          }))

let test_roundtrip_accept () =
  check_rt "accept with data + piggy ack"
    (mk ~reliable:true ~seq:0 ~ack:1
       (Wire.Accept
          { tid = 77; arg = 3; put_transferred = 10; need_put_data = false; data = b "reply" }));
  check_rt "accept needing data"
    (mk ~reliable:true
       (Wire.Accept
          { tid = 78; arg = -1; put_transferred = 64; need_put_data = true; data = Bytes.empty }))

let test_roundtrip_controls () =
  check_rt "ack" (mk ~ack:1 Wire.Ack);
  check_rt "busy" (mk (Wire.Busy { tid = 9 }));
  check_rt "error unadvertised" (mk (Wire.Error { tid = 9; code = Wire.Err_unadvertised }));
  check_rt "error crashed" (mk (Wire.Error { tid = 9; code = Wire.Err_crashed }));
  check_rt "error cancelled" (mk (Wire.Error { tid = 9; code = Wire.Err_cancelled }));
  check_rt "cancel" (mk ~reliable:true ~seq:5 (Wire.Cancel_request { tid = 5 }));
  check_rt "cancel reply" (mk (Wire.Cancel_reply { tid = 5; ok = true }));
  check_rt "probe" (mk (Wire.Probe { tid = 123456789 }));
  check_rt "probe reply" (mk (Wire.Probe_reply { tid = 123456789; alive = false }));
  check_rt "put data" (mk ~reliable:true (Wire.Put_data { tid = 4; data = b "payload" }));
  check_rt "discover"
    (mk (Wire.Discover { tid = 2; pattern = Pattern.well_known 0x1234 }));
  check_rt "discover reply" (mk (Wire.Discover_reply { tid = 2 }))

let test_decode_garbage () =
  (match Wire.decode (b "") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty decoded");
  (match Wire.decode (b "\xFF\x00\x00\x00") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad kind decoded");
  let good = Wire.encode (mk (Wire.Busy { tid = 1 })) in
  let truncated = Bytes.sub good 0 (Bytes.length good - 1) in
  (match Wire.decode truncated with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated decoded");
  let padded = Bytes.cat good (b "!") in
  match Wire.decode padded with
  | Error e -> Alcotest.(check string) "trailing" "trailing bytes" e
  | Ok _ -> Alcotest.fail "padded decoded"

let test_wide_seq_roundtrip () =
  (* Every 8-bit seq/ack combination survives the codec. Sizes tier with
     the values: 0/1 with a 0/1 ack keeps the seed's alternating-bit
     layout (no extension byte), 4-bit values add the first extension
     byte (the window<=8 format, byte for byte), and anything wider adds
     the second. *)
  let baseline = Bytes.length (Wire.encode (mk ~reliable:true (Wire.Busy { tid = 9 }))) in
  for seq = 0 to 255 do
    for ack = -1 to 255 do
      let pkt =
        mk ~reliable:true ~seq
          ?ack:(if ack < 0 then None else Some ack)
          (Wire.Busy { tid = 9 })
      in
      check_rt (Printf.sprintf "seq=%d ack=%d" seq ack) pkt;
      let len = Bytes.length (Wire.encode pkt) in
      if seq < 2 && ack < 2 then
        Alcotest.(check int)
          (Printf.sprintf "window-1 layout unchanged (seq=%d ack=%d)" seq ack)
          baseline len
      else if seq < 16 && ack < 16 then begin
        Alcotest.(check int)
          (Printf.sprintf "one extension byte (seq=%d ack=%d)" seq ack)
          (baseline + 1) len;
        (* the window<=8 format is untouched: the extension byte never
           carries the second-extension marker for 4-bit values *)
        Alcotest.(check int)
          (Printf.sprintf "no ext2 marker (seq=%d ack=%d)" seq ack)
          0
          (Char.code (Bytes.get (Wire.encode pkt) 4) land 0x40)
      end
      else
        Alcotest.(check int)
          (Printf.sprintf "two extension bytes (seq=%d ack=%d)" seq ack)
          (baseline + 2) len
    done
  done;
  (* the run flag is a flag bit: it survives the codec and costs no bytes *)
  let run_pkt = mk ~reliable:true ~run:true (Wire.Busy { tid = 9 }) in
  check_rt "run flag" run_pkt;
  Alcotest.(check int) "run flag adds no bytes" baseline
    (Bytes.length (Wire.encode run_pkt))

let test_data_bytes () =
  let pkt =
    mk (Wire.Put_data { tid = 1; data = Bytes.create 321 })
  in
  Alcotest.(check int) "data bytes" 321 (Wire.data_bytes pkt.Wire.body);
  Alcotest.(check int) "control has none" 0 (Wire.data_bytes Wire.Ack)

(* qcheck: arbitrary packets roundtrip *)

let gen_pattern =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Pattern.well_known (abs i land 0xFFFF)) int;
        return Pattern.kill_pattern;
        return (Pattern.boot_pattern 3);
      ])

let gen_body =
  QCheck.Gen.(
    let tid = map (fun i -> abs i land 0xFF_FFFF_FFFF) int in
    let data = map Bytes.of_string (string_size (0 -- 200)) in
    let arg = map (fun i -> (i land 0xFFFFFFFF) - 0x80000000) int in
    let size = 0 -- 4096 in
    oneof
      [
        (fun st ->
          let retry = bool st in
          Wire.Request
            {
              tid = tid st;
              pattern = gen_pattern st;
              arg = arg st;
              put_size = size st;
              get_size = size st;
              data = (if retry then Bytes.empty else data st);
              retry;
            });
        (fun st ->
          Wire.Accept
            {
              tid = tid st;
              arg = arg st;
              put_transferred = size st;
              need_put_data = bool st;
              data = data st;
            });
        map2 (fun t d -> Wire.Put_data { tid = t; data = d }) tid data;
        return Wire.Ack;
        map (fun t -> Wire.Busy { tid = t }) tid;
        map2
          (fun t c ->
            Wire.Error
              {
                tid = t;
                code =
                  (match c mod 3 with
                   | 0 -> Wire.Err_unadvertised
                   | 1 -> Wire.Err_crashed
                   | _ -> Wire.Err_cancelled);
              })
          tid int;
        map (fun t -> Wire.Cancel_request { tid = t }) tid;
        map2 (fun t ok -> Wire.Cancel_reply { tid = t; ok }) tid bool;
        map (fun t -> Wire.Probe { tid = t }) tid;
        map2 (fun t alive -> Wire.Probe_reply { tid = t; alive }) tid bool;
        (fun st -> Wire.Discover { tid = tid st; pattern = gen_pattern st });
        map (fun t -> Wire.Discover_reply { tid = t }) tid;
      ])

let gen_packet =
  QCheck.Gen.(
    fun st ->
      let body = gen_body st in
      {
        Wire.src = int_bound 0xFFFF st;
        reliable = bool st;
        seq = int_bound 255 st;
        ack = (if bool st then Some (int_bound 255 st) else None);
        run = bool st;
        body;
      })

let arb_packet = QCheck.make ~print:Wire.describe gen_packet

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire codec roundtrips arbitrary packets" ~count:500 arb_packet
    (fun pkt -> roundtrip pkt = pkt)

(* The receive path's decoder, [decode_sub] on a packet inside a larger
   frame buffer, for every body kind, with the ack present and absent and
   sequence numbers of the widths W = 1, 8 and 64 use (spaces 2, 16 and
   256): the packet comes back; each strict prefix is truncated; one byte
   more is trailing; and the same packet with its data field emptied
   decodes to the shared [Bytes.empty], allocating nothing for it. *)
let with_data body data =
  match body with
  | Wire.Request r -> Wire.Request { r with data }
  | Wire.Accept a -> Wire.Accept { a with data }
  | Wire.Put_data p -> Wire.Put_data { p with data }
  | body -> body

let gen_window_packet =
  QCheck.Gen.(
    fun st ->
      let space = match int_bound 2 st with 0 -> 2 | 1 -> 16 | _ -> 256 in
      let body = gen_body st in
      let ack = if bool st then Some (int_bound (space - 1) st) else None in
      { Wire.src = int_bound 0xFFFF st; reliable = bool st; seq = int_bound (space - 1) st; ack;
        run = bool st; body })

let prop_decode_sub_contract =
  QCheck.Test.make ~name:"decode_sub: roundtrip, prefixes, trailing byte, empty data" ~count:600
    (QCheck.make ~print:Wire.describe gen_window_packet)
    (fun pkt ->
      let off = 5 in
      let frame p =
        let size = Wire.encoded_size p in
        let buf = Bytes.make (off + size + 1) '\x5A' in
        ignore (Wire.encode_into p buf ~off);
        (buf, size)
      in
      let buf, size = frame pkt in
      let decode len = Wire.decode_sub buf ~off ~len in
      let rec prefixes len =
        len >= size || (decode len = Error "truncated packet" && prefixes (len + 1))
      in
      let emptied = { pkt with body = with_data pkt.Wire.body Bytes.empty } in
      let ebuf, esize = frame emptied in
      decode size = Ok pkt && prefixes 0
      && decode (size + 1) = Error "trailing bytes"
      &&
      match Wire.decode_sub ebuf ~off ~len:esize with
      | Ok { body = Request { data; _ } | Accept { data; _ } | Put_data { data; _ }; _ } ->
        data == Bytes.empty
      | Ok p -> p = emptied
      | Error _ -> false)

(* One codec: the zero-copy [encode_into] and the seed's Buffer-based
   encoder (the [Ref_wire] oracle in helpers.ml) produce byte-identical
   frames of exactly [encoded_size], for the full 8-bit seq/ack range. *)
let prop_encoders_agree =
  QCheck.Test.make ~name:"encode_into / encode_buffer / encoded_size agree" ~count:500
    arb_packet
    (fun pkt ->
      let size = Wire.encoded_size pkt in
      let buf = Bytes.make (size + 8) '\xAA' in
      let written = Wire.encode_into pkt buf ~off:3 in
      written = size
      && Bytes.sub buf 3 written = Helpers.Ref_wire.encode pkt
      && Bytes.sub buf 3 written = Wire.encode pkt)

(* A body's kind code is the header byte it encodes to, and indexes the
   traced packet kind: [Wire.pkt] names what [Wire.describe] prints
   ("CANCEL-R#..." for CANCEL_R), and [Wire.tid] the tid it shows. *)
let prop_kinds_agree =
  QCheck.Test.make ~name:"kind codes, traced kinds and tids agree" ~count:500 arb_packet
    (fun pkt ->
      let body = pkt.Wire.body in
      let described = Wire.describe pkt in
      let token =
        match String.index_from_opt described 0 '#' with
        | Some i -> String.sub described 0 i
        | None -> List.hd (String.split_on_char '+' described)
      in
      let name = Event.pkt_name (Wire.pkt body) in
      let with_tid = Printf.sprintf "%s#%d" token (Wire.tid body land 0xFFFF) in
      Char.code (Bytes.get (Wire.encode pkt) 0) = Wire.kind body
      && token = String.map (fun c -> if c = '_' then '-' else c) name
      && (body = Wire.Ack || String.starts_with ~prefix:with_tid described))

(* Fuzz: decoding arbitrary bytes never raises; it returns Ok or Error. *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"wire decode is total on arbitrary bytes" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 128))
    (fun junk ->
      match Wire.decode (Bytes.of_string junk) with Ok _ | Error _ -> true)

(* Fuzz: single-byte mutations of valid packets either decode to some
   packet or fail cleanly -- never an exception. *)
let prop_mutation_never_crashes =
  QCheck.Test.make ~name:"wire decode survives mutated packets" ~count:500
    QCheck.(triple arb_packet small_int small_int)
    (fun (pkt, pos, flip) ->
      let wire = Wire.encode pkt in
      if Bytes.length wire = 0 then true
      else begin
        let pos = pos mod Bytes.length wire in
        Bytes.set wire pos
          (Char.chr (Char.code (Bytes.get wire pos) lxor (1 + (flip mod 255))));
        match Wire.decode wire with Ok _ | Error _ -> true
      end)

(* Fuzz seeded from the bus's own [corrupt] mutation: the encoded packet
   rides the simulated medium with corruption_rate = 1.0, so the damage is
   exactly what a hostile wire produces. A NIC would CRC-screen every
   single-byte flip, so the property taps the raw frame below the CRC
   check and decodes the damaged payload directly: decode must be total
   (Ok or Error, never an exception) even on bytes the screen would have
   caught. *)
let prop_bus_corruption_decode_total =
  QCheck.Test.make ~name:"wire decode is total under bus corruption" ~count:300
    QCheck.(pair arb_packet small_int)
    (fun (pkt, seed) ->
      let module Engine = Soda_sim.Engine in
      let module Bus = Soda_net.Bus in
      let module Frame = Soda_net.Frame in
      let engine = Engine.create ~seed:(1 + abs seed) () in
      let config = { Bus.default_config with corruption_rate = 1.0 } in
      let bus = Bus.create ~config engine in
      let decoded = ref false in
      Bus.attach bus ~mid:1 ~rx:(fun frame ->
          let wire = frame.Frame.wire in
          (* strip the 2-byte CRC trailer without verifying it *)
          let payload = Bytes.sub wire 0 (max 0 (Bytes.length wire - 2)) in
          (match Wire.decode payload with Ok _ | Error _ -> ());
          decoded := true);
      Bus.send bus ~src:0 ~dst:(Frame.To 1) (Wire.encode pkt);
      ignore (Engine.run engine);
      !decoded
      && Soda_obs.Metrics.counter (Bus.stats bus) "bus.frames_corrupted" = 1)

let suites =
  [
    ( "proto.wire",
      [
        Alcotest.test_case "request roundtrip" `Quick test_roundtrip_request;
        Alcotest.test_case "accept roundtrip" `Quick test_roundtrip_accept;
        Alcotest.test_case "control roundtrips" `Quick test_roundtrip_controls;
        Alcotest.test_case "wide sequence numbers" `Quick test_wide_seq_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
        Alcotest.test_case "data accounting" `Quick test_data_bytes;
        Helpers.qcheck prop_wire_roundtrip;
        Helpers.qcheck prop_decode_sub_contract;
        Helpers.qcheck prop_encoders_agree;
        Helpers.qcheck prop_kinds_agree;
        Helpers.qcheck prop_decode_never_crashes;
        Helpers.qcheck prop_mutation_never_crashes;
        Helpers.qcheck prop_bus_corruption_decode_total;
      ] );
  ]
