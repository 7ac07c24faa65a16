module Engine = Soda_sim.Engine
module Crc16 = Soda_net.Crc16
module Frame = Soda_net.Frame
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic

let b = Bytes.of_string

(* ---- crc ------------------------------------------------------------------ *)

let test_crc_known_vector () =
  (* CRC-16/CCITT-FALSE("123456789") = 0x29B1 *)
  let data = b "123456789" in
  Alcotest.(check int) "check value" 0x29B1 (Crc16.compute data ~off:0 ~len:9)

let test_crc_roundtrip () =
  let payload = b "hello, megalink" in
  match Crc16.check (Crc16.append payload) with
  | Some p -> Alcotest.(check string) "payload preserved" "hello, megalink" (Bytes.to_string p)
  | None -> Alcotest.fail "valid CRC rejected"

let test_crc_detects_corruption () =
  let wire = Crc16.append (b "data") in
  Bytes.set wire 1 'X';
  Alcotest.(check bool) "corruption detected" true (Crc16.check wire = None)

let test_crc_short_frame () =
  Alcotest.(check bool) "tiny frame rejected" true (Crc16.check (b "x") = None)

let prop_crc_roundtrip =
  QCheck.Test.make ~name:"crc roundtrips arbitrary payloads" ~count:300 QCheck.string
    (fun s ->
      match Crc16.check (Crc16.append (Bytes.of_string s)) with
      | Some p -> Bytes.to_string p = s
      | None -> false)

let prop_crc_detects_single_flip =
  QCheck.Test.make ~name:"crc detects any single-byte flip" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (pair small_int small_int))
    (fun (s, (pos, flip)) ->
      let wire = Crc16.append (Bytes.of_string s) in
      let pos = pos mod Bytes.length wire in
      let flip = 1 + (flip mod 255) in
      Bytes.set wire pos (Char.chr (Char.code (Bytes.get wire pos) lxor flip));
      Crc16.check wire = None)

(* The bytewise CRC-16/CCITT-FALSE that [Crc16.compute] replaced: one
   table lookup per byte, in one serial chain. The sliced CRC must agree
   with it everywhere. *)
let reference_table =
  Array.init 256 (fun byte ->
      let crc = ref (byte lsl 8) in
      for _ = 0 to 7 do
        if !crc land 0x8000 <> 0 then crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else crc := (!crc lsl 1) land 0xFFFF
      done;
      !crc)

let reference_crc bytes ~off ~len =
  let crc = ref 0xFFFF in
  for i = off to off + len - 1 do
    let byte = Char.code (Bytes.get bytes i) in
    crc := ((!crc lsl 8) lxor reference_table.(((!crc lsr 8) lxor byte) land 0xFF)) land 0xFFFF
  done;
  !crc

(* Random contents, a random offset into the buffer and a length of 0 to
   4,200 bytes: a length of [8 q + r] leaves a tail of [r] bytes for the
   bytewise loop. *)
let prop_crc_matches_bytewise =
  QCheck.Test.make ~name:"sliced crc equals the bytewise crc" ~count:400
    QCheck.(triple (int_range 0 525) (int_range 0 7) (pair (int_range 0 63) int))
    (fun (q, r, (off, seed)) ->
      let len = (8 * q) + r in
      let rng = Random.State.make [| seed |] in
      let buf =
        Bytes.init (off + len + Random.State.int rng 9) (fun _ ->
            Char.chr (Random.State.int rng 256))
      in
      Crc16.compute buf ~off ~len = reference_crc buf ~off ~len)

(* Every tail length at every alignment, deterministically. *)
let test_crc_every_residue () =
  let buf = Bytes.init 4_300 (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xFF)) in
  for off = 0 to 8 do
    for len = 0 to 80 do
      Alcotest.(check int) (Printf.sprintf "off %d len %d" off len)
        (reference_crc buf ~off ~len) (Crc16.compute buf ~off ~len)
    done;
    for len = 4_192 to 4_200 do
      Alcotest.(check int) (Printf.sprintf "off %d len %d" off len)
        (reference_crc buf ~off ~len) (Crc16.compute buf ~off ~len)
    done
  done

let test_crc_range_checked () =
  let buf = Bytes.make 16 'x' in
  List.iter
    (fun (off, len) ->
      match Crc16.compute buf ~off ~len with
      | _ -> Alcotest.failf "off %d len %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 17); (13, 4); (17, 0); (1, max_int); (max_int, 1) ];
  Alcotest.(check int) "an empty range at the end is the initial value" 0xFFFF
    (Crc16.compute buf ~off:16 ~len:0)

(* The CRC runs twice per frame, so it must not allocate: 10,000 rounds
   of [compute], [seal] and [payload_len] on a 4 KB buffer allocate
   nothing beyond the boxed floats of the measurement itself. *)
let[@inline never] crc_rounds wire n =
  let len = Bytes.length wire - 2 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc lxor Crc16.compute wire ~off:1 ~len:(len - 1);
    Crc16.seal wire ~len;
    acc := !acc lxor Crc16.payload_len wire
  done;
  !acc

let test_crc_allocates_nothing () =
  let wire = Bytes.init 4_096 (fun i -> Char.chr (i land 0xFF)) in
  ignore (crc_rounds wire 10);
  let before = Gc.minor_words () in
  let acc = crc_rounds wire 10_000 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "the sealed frame verifies" 4_094 (Crc16.payload_len wire);
  ignore (Sys.opaque_identity acc);
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words over 10,000 rounds" words) true
    (words < 8.0)

(* ---- bus / nic -------------------------------------------------------------- *)

let setup ?(config = Bus.default_config) () =
  let e = Engine.create ~seed:3 () in
  let bus = Bus.create ~config e in
  (e, bus)

let test_unicast_delivery () =
  let e, bus = setup () in
  let got = ref None in
  let n1 = Nic.attach bus ~mid:1 ~rx:(fun ~src ~broadcast:_ ~ctx:_ p -> got := Some (src, p)) in
  let n2 = Nic.attach bus ~mid:2 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> Alcotest.fail "mid 2 got frame") in
  ignore n1;
  Nic.send n2 ~dst:1 (b "ping");
  ignore (Engine.run e);
  match !got with
  | Some (2, p) -> Alcotest.(check string) "payload" "ping" (Bytes.to_string p)
  | _ -> Alcotest.fail "frame not delivered"

let test_broadcast_excludes_sender () =
  let e, bus = setup () in
  let hits = ref [] in
  let sender = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> hits := 0 :: !hits) in
  for mid = 1 to 3 do
    ignore (Nic.attach bus ~mid ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> hits := mid :: !hits))
  done;
  Nic.broadcast sender (b "hello");
  ignore (Engine.run e);
  Alcotest.(check (list int)) "all but sender, ascending" [ 1; 2; 3 ] (List.rev !hits)

let test_transmission_time () =
  let e, bus = setup () in
  (* 100-byte payload + 8 overhead + 2 crc = 110 bytes = 880 bits at 1 Mbit
     = 880 us, + 5 us propagation. *)
  let arrival = ref 0 in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> arrival := Engine.now e));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.send n0 ~dst:1 (Bytes.create 100);
  ignore (Engine.run e);
  Alcotest.(check int) "bandwidth-accurate latency" 885 !arrival

let test_medium_serialisation () =
  let e, bus = setup () in
  let arrivals = ref [] in
  ignore
    (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ ->
         arrivals := Engine.now e :: !arrivals));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.send n0 ~dst:1 (Bytes.create 100);
  Nic.send n0 ~dst:1 (Bytes.create 100);
  ignore (Engine.run e);
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    Alcotest.(check int) "first frame" 885 t1;
    Alcotest.(check int) "second waits for the medium" 1765 t2
  | _ -> Alcotest.fail "expected two frames"

let test_loss_injection () =
  let config = { Bus.default_config with loss_rate = 1.0 } in
  let e, bus = setup ~config () in
  let got = ref false in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> got := true));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.send n0 ~dst:1 (b "doomed");
  ignore (Engine.run e);
  Alcotest.(check bool) "frame lost" false !got;
  Alcotest.(check int) "loss counted" 1 (Soda_obs.Metrics.counter (Bus.stats bus) "bus.frames_lost")

let test_corruption_dropped_by_crc () =
  let config = { Bus.default_config with corruption_rate = 1.0 } in
  let e, bus = setup ~config () in
  let got = ref false in
  let n1 = Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> got := true) in
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.send n0 ~dst:1 (b "garbled");
  ignore (Engine.run e);
  Alcotest.(check bool) "corrupted frame never reaches the kernel" false !got;
  Alcotest.(check int) "crc drop counted" 1 (Nic.crc_drops n1)

let test_nic_disable () =
  let e, bus = setup () in
  let got = ref false in
  let n1 = Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> got := true) in
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.disable n1;
  Nic.send n0 ~dst:1 (b "x");
  ignore (Engine.run e);
  Alcotest.(check bool) "disabled nic silent" false !got;
  Nic.enable n1;
  Nic.send n0 ~dst:1 (b "y");
  ignore (Engine.run e);
  Alcotest.(check bool) "re-enabled nic receives" true !got

let test_rate_setter_validation () =
  let _, bus = setup () in
  Bus.set_loss_rate bus 0.0;
  Bus.set_loss_rate bus 1.0;
  Bus.set_corruption_rate bus 0.5;
  Alcotest.(check bool)
    "valid rates accepted" true ((Bus.config bus).Bus.corruption_rate = 0.5);
  let rejects f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "loss > 1 rejected" true
    (rejects (fun () -> Bus.set_loss_rate bus 1.5));
  Alcotest.(check bool) "negative loss rejected" true
    (rejects (fun () -> Bus.set_loss_rate bus (-0.1)));
  Alcotest.(check bool) "NaN loss rejected" true
    (rejects (fun () -> Bus.set_loss_rate bus Float.nan));
  Alcotest.(check bool) "corruption > 1 rejected" true
    (rejects (fun () -> Bus.set_corruption_rate bus 2.0));
  (* a rejected rate leaves the config untouched *)
  Alcotest.(check bool)
    "config unchanged after rejection" true
    ((Bus.config bus).Bus.corruption_rate = 0.5)

let test_crc_drops_in_metrics () =
  let config = { Bus.default_config with corruption_rate = 1.0 } in
  let e, bus = setup ~config () in
  let stats = Soda_obs.Metrics.create () in
  let n1 = Nic.attach ~stats bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Nic.send n0 ~dst:1 (b "garbled");
  ignore (Engine.run e);
  Alcotest.(check int) "private counter" 1 (Nic.crc_drops n1);
  Alcotest.(check int) "surfaced in the metrics registry" 1
    (Soda_obs.Metrics.counter stats "nic.crc_drops")

let test_partition_and_heal () =
  let e, bus = setup () in
  let got = ref 0 in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> incr got));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Bus.set_partition bus ([ 0 ], [ 1 ]);
  Nic.send n0 ~dst:1 (b "eaten");
  ignore (Engine.run e);
  Alcotest.(check int) "frame crossing the cut dropped" 0 !got;
  Alcotest.(check int) "partition drop counted" 1
    (Soda_obs.Metrics.counter (Bus.stats bus) "bus.frames_partitioned");
  Bus.heal bus;
  Nic.send n0 ~dst:1 (b "through");
  ignore (Engine.run e);
  Alcotest.(check int) "after heal frames flow" 1 !got;
  Alcotest.check_raises "mid in both groups rejected"
    (Invalid_argument "Bus.set_partition: mid 1 in both groups") (fun () ->
      Bus.set_partition bus ([ 1 ], [ 1; 2 ]))

let test_partition_eats_inflight_frame () =
  let e, bus = setup () in
  let got = ref 0 in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> incr got));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  (* The frame enters the medium first; the cut appears while it is in
     flight (delivery happens at ~117 us for a 6-byte payload). *)
  Nic.send n0 ~dst:1 (b "launch");
  Engine.schedule e ~delay:1 (fun () -> Bus.set_partition bus ([ 0 ], [ 1 ]));
  ignore (Engine.run e);
  Alcotest.(check int) "in-flight frame eaten by the cut" 0 !got

let test_third_party_unaffected_by_partition () =
  let e, bus = setup () in
  let got = ref 0 in
  ignore (Nic.attach bus ~mid:2 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> incr got));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Bus.set_partition bus ([ 0 ], [ 1 ]);
  Nic.send n0 ~dst:2 (b "bystander");
  ignore (Engine.run e);
  Alcotest.(check int) "mid outside both groups still reachable" 1 !got

let test_duplicate_next () =
  let e, bus = setup () in
  let got = ref 0 in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> incr got));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Bus.duplicate_next bus;
  Nic.send n0 ~dst:1 (b "twice");
  Nic.send n0 ~dst:1 (b "once");
  ignore (Engine.run e);
  Alcotest.(check int) "first frame delivered twice, second once" 3 !got;
  Alcotest.(check int) "duplication counted" 1
    (Soda_obs.Metrics.counter (Bus.stats bus) "bus.frames_duplicated")

let test_delay_jitter_validation_and_delivery () =
  let e, bus = setup () in
  let got = ref 0 in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> incr got));
  let n0 = Nic.attach bus ~mid:0 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  Alcotest.(check bool) "negative jitter rejected" true
    (try Bus.set_delay_jitter bus ~min_us:(-1) ~max_us:5; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "inverted range rejected" true
    (try Bus.set_delay_jitter bus ~min_us:10 ~max_us:5; false
     with Invalid_argument _ -> true);
  Bus.set_delay_jitter bus ~min_us:100 ~max_us:5_000;
  for _ = 1 to 5 do Nic.send n0 ~dst:1 (b "wobbly") done;
  ignore (Engine.run e);
  Alcotest.(check int) "jittered frames still all delivered" 5 !got

(* PR 7 regression: the hashtable-backed partition check must pin the
   seed's List.mem semantics exactly — the cut is symmetric, same-group
   traffic delivers, mids in neither group talk to everyone, and heal
   restores full connectivity. *)
let test_partition_semantics () =
  let e, bus = setup () in
  let log = ref [] in
  List.iter
    (fun mid ->
      Bus.attach bus ~mid ~rx:(fun f -> log := (f.Frame.src, mid) :: !log))
    [ 1; 2; 3; 5 ];
  Bus.set_partition bus ([ 1; 2 ], [ 3 ]);
  let burst () =
    log := [];
    List.iter
      (fun (src, dst) -> Bus.send bus ~src ~dst:(Frame.To dst) (b "x"))
      [ (1, 3); (3, 1); (1, 2); (3, 5); (5, 3); (5, 1) ];
    ignore (Engine.run e);
    List.sort compare !log
  in
  Alcotest.(check (list (pair int int)))
    "cut is symmetric; same group and unlisted mids deliver"
    [ (1, 2); (3, 5); (5, 1); (5, 3) ]
    (burst ());
  Bus.heal bus;
  Alcotest.(check (list (pair int int)))
    "heal restores full connectivity"
    [ (1, 2); (1, 3); (3, 1); (3, 5); (5, 1); (5, 3) ]
    (burst ());
  Alcotest.check_raises "mid in both groups rejected"
    (Invalid_argument "Bus.set_partition: mid 2 in both groups") (fun () ->
      Bus.set_partition bus ([ 1; 2 ], [ 2; 3 ]))

let test_duplicate_mid_rejected () =
  let _, bus = setup () in
  ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()));
  Alcotest.check_raises "duplicate station"
    (Invalid_argument "Bus.attach: mid 1 already attached") (fun () ->
      ignore (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ())))

let suites =
  [
    ( "net.crc16",
      [
        Alcotest.test_case "known vector" `Quick test_crc_known_vector;
        Alcotest.test_case "roundtrip" `Quick test_crc_roundtrip;
        Alcotest.test_case "detects corruption" `Quick test_crc_detects_corruption;
        Alcotest.test_case "short frame" `Quick test_crc_short_frame;
        Helpers.qcheck prop_crc_roundtrip;
        Helpers.qcheck prop_crc_detects_single_flip;
        Helpers.qcheck prop_crc_matches_bytewise;
        Alcotest.test_case "every tail length and alignment" `Quick test_crc_every_residue;
        Alcotest.test_case "range checked up front" `Quick test_crc_range_checked;
        Alcotest.test_case "no allocation" `Quick test_crc_allocates_nothing;
      ] );
    ( "net.bus",
      [
        Alcotest.test_case "unicast delivery" `Quick test_unicast_delivery;
        Alcotest.test_case "broadcast excludes sender" `Quick test_broadcast_excludes_sender;
        Alcotest.test_case "transmission time" `Quick test_transmission_time;
        Alcotest.test_case "medium serialisation" `Quick test_medium_serialisation;
        Alcotest.test_case "loss injection" `Quick test_loss_injection;
        Alcotest.test_case "corruption dropped by crc" `Quick test_corruption_dropped_by_crc;
        Alcotest.test_case "nic disable/enable" `Quick test_nic_disable;
        Alcotest.test_case "duplicate mid rejected" `Quick test_duplicate_mid_rejected;
        Alcotest.test_case "rate setter validation" `Quick test_rate_setter_validation;
        Alcotest.test_case "crc drops in metrics" `Quick test_crc_drops_in_metrics;
      ] );
    ( "net.faults",
      [
        Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
        Alcotest.test_case "partition eats in-flight frame" `Quick
          test_partition_eats_inflight_frame;
        Alcotest.test_case "third party unaffected" `Quick
          test_third_party_unaffected_by_partition;
        Alcotest.test_case "partition semantics pinned" `Quick test_partition_semantics;
        Alcotest.test_case "duplicate next" `Quick test_duplicate_next;
        Alcotest.test_case "delay jitter" `Quick test_delay_jitter_validation_and_delivery;
      ] );
  ]
