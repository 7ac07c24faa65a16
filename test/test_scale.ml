(* PR 7 scale suite.

   The zero-alloc hot paths (pooled wire buffers, in-place codec,
   array/hashtable-backed bus) must be observationally identical to the
   seed implementations they replaced. Four angles:

   - codec equivalence: the offset writers produce byte-for-byte what the
     seed's Buffer-based allocator produces, at any offset, and
     [decode_sub] reads frames in place;
   - pool discipline: reuse is real, and acquire never hands out a buffer
     that is still live;
   - bus differential: on random topologies and fault schedules the new
     bus delivers the exact same (receiver, virtual-time, bytes) log as
     the seed's list-based algorithm ([Helpers.Ref_bus]), each driven by
     its own same-seed engine so the split fault-RNG streams coincide;
   - replay: the open-loop SCALE workload is a pure function of its
     config — two runs agree on every engine counter and tag count. *)

module Wire = Soda_proto.Wire
module Pool = Soda_net.Pool
module Crc16 = Soda_net.Crc16
module Bus = Soda_net.Bus
module Frame = Soda_net.Frame
module Heap = Soda_sim.Heap
module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Openloop = Soda_core.Openloop
module Ref_bus = Helpers.Ref_bus

(* ---- wire codec: pooled path == seed allocator -------------------------- *)

let prop_encode_equals_seed_allocator =
  QCheck.Test.make ~name:"pooled encoder matches seed Buffer allocator byte-for-byte"
    ~count:1000 Test_wire.arb_packet (fun pkt ->
      let fast = Wire.encode pkt in
      let seed = Helpers.Ref_wire.encode pkt in
      Bytes.equal fast seed && Wire.encoded_size pkt = Bytes.length seed)

let arb_packet_at_offset =
  QCheck.make
    ~print:(fun (pkt, off, slack) ->
      Printf.sprintf "%s @%d+%d" (Wire.describe pkt) off slack)
    QCheck.Gen.(fun st -> (Test_wire.gen_packet st, int_bound 64 st, int_bound 32 st))

let bytes_all buf c lo hi =
  let ok = ref true in
  for i = lo to hi - 1 do
    if Bytes.get buf i <> c then ok := false
  done;
  !ok

let prop_encode_into_at_offset =
  QCheck.Test.make ~name:"encode_into writes exactly the packet at any offset"
    ~count:500 arb_packet_at_offset (fun (pkt, off, slack) ->
      let size = Wire.encoded_size pkt in
      let buf = Bytes.make (off + size + slack) '\xAA' in
      let written = Wire.encode_into pkt buf ~off in
      written = size
      && Bytes.equal (Bytes.sub buf off size) (Wire.encode pkt)
      && bytes_all buf '\xAA' 0 off
      && bytes_all buf '\xAA' (off + size) (off + size + slack))

let prop_decode_sub_in_place =
  QCheck.Test.make ~name:"decode_sub reads frames in place at any offset" ~count:500
    arb_packet_at_offset (fun (pkt, off, slack) ->
      let size = Wire.encoded_size pkt in
      let buf = Bytes.make (off + size + slack) '\xEE' in
      let written = Wire.encode_into pkt buf ~off in
      Result.map Helpers.read_out (Wire.decode_sub buf ~off ~len:written) = Ok pkt)

(* End-to-end hot-path shape: acquire a pooled buffer of the frame's size
   class, encode in place, seal, then screen and decode in place like the
   receiving NIC. *)
let prop_pooled_frame_seals_and_screens =
  QCheck.Test.make ~name:"pooled frame seals, screens and decodes in place"
    ~count:300 Test_wire.arb_packet (fun pkt ->
      let pool = Pool.create () in
      let size = Wire.encoded_size pkt in
      let wire = Pool.acquire pool (size + 2) in
      let written = Wire.encode_into pkt wire ~off:0 in
      Crc16.seal wire ~len:written;
      Crc16.screen wire ~len:(written + 2) = written
      && Result.map Helpers.read_out (Wire.decode_sub wire ~off:0 ~len:written) = Ok pkt)

(* ---- pool discipline ---------------------------------------------------- *)

let test_pool_reuse () =
  let pool = Pool.create () in
  let a = Pool.acquire pool 64 in
  Pool.release pool a;
  let b = Pool.acquire pool 64 in
  Alcotest.(check bool) "same-size acquire recycles the released buffer" true (a == b);
  Alcotest.(check int) "reuse counted" 1 (Pool.reuses pool);
  let c = Pool.acquire pool 64 in
  Alcotest.(check bool) "bucket drained: fresh buffer" false (c == b);
  Alcotest.(check int) "acquired length honoured" 64 (Bytes.length c);
  Alcotest.(check int) "live tracks outstanding buffers" 2 (Pool.live pool);
  Alcotest.(check int) "acquires counted" 3 (Pool.acquires pool)

(* Size classes: a buffer's class is the least power of two, at least
   16, that holds the length asked for; a released buffer serves every
   length of its class and no longer one. *)
let test_pool_size_classes () =
  List.iter
    (fun (len, cap) ->
      Alcotest.(check int)
        (Printf.sprintf "a fresh buffer for %d bytes" len)
        cap
        (Bytes.length (Pool.acquire (Pool.create ()) len)))
    [ (0, 16); (1, 16); (16, 16); (17, 32); (1_000, 1_024); (1_024, 1_024); (1_025, 2_048) ];
  let pool = Pool.create () in
  let a = Pool.acquire pool 1_000 in
  Alcotest.(check int) "a fresh buffer is its class's size" 1_024 (Bytes.length a);
  Pool.release pool a;
  Alcotest.(check bool) "a shorter length of the class reuses it" true
    (Pool.acquire pool 513 == a);
  Alcotest.(check bool) "the class is empty again: a fresh buffer" false
    (Pool.acquire pool 1_000 == a);
  (* a buffer that is no power of two serves the class below its size *)
  let odd = Bytes.create 3_000 in
  Pool.release pool odd;
  Alcotest.(check bool) "a longer length than it holds is not served" false
    (Pool.acquire pool 3_000 == odd);
  Alcotest.(check bool) "its class's lengths are" true (Pool.acquire pool 2_048 == odd)

(* Frames of 401 lengths, 1,800 to 2,200 bytes, one at a time: two
   classes serve them all, so the pool mints two buffers where
   exact-length free lists minted one per length. *)
let test_pool_spread_of_lengths () =
  let pool = Pool.create () in
  for len = 1_800 to 2_200 do
    Pool.release pool (Pool.acquire pool len)
  done;
  Alcotest.(check int) "two buffers minted" 2 (Pool.acquires pool - Pool.reuses pool);
  Alcotest.(check int) "none live" 0 (Pool.live pool)

let prop_pool_never_aliases_live =
  QCheck.Test.make ~name:"pool reuse-after-release never aliases a live buffer"
    ~count:300
    QCheck.(list (pair bool (int_bound 4)))
    (fun ops ->
      let sizes = [| 8; 8; 24; 64; 130 |] in
      let pool = Pool.create () in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (release, i) ->
          if release then (
            match !live with
            | [] -> ()
            | buf :: rest ->
              Pool.release pool buf;
              live := rest)
          else begin
            let buf = Pool.acquire pool sizes.(i) in
            if List.exists (fun b -> b == buf) !live then ok := false;
            (* append: releases then recycle the oldest buffers first *)
            live := !live @ [ buf ]
          end)
        ops;
      !ok && Pool.live pool = List.length !live)

(* ---- differential bus: new implementation vs the seed algorithm --------- *)

type op =
  | Send of { src : int; dst : int option; payload : bytes }  (* None = broadcast *)
  | Partition of int list * int list
  | Heal
  | Duplicate of int
  | Jitter of int * int
  | Loss of float
  | Corrupt of float

(* A random fault-and-traffic schedule: mostly sends, with partitions,
   heals, duplications, jitter and loss/corruption-rate changes mixed in
   at strictly increasing virtual times. *)
let gen_schedule rng ~mids ~ops =
  let mid () = mids.(Rng.int rng (Array.length mids)) in
  let payload () =
    let len = Rng.int rng 65 in
    Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))
  in
  let groups () =
    let ga = ref [] and gb = ref [] in
    Array.iter
      (fun m ->
        match Rng.int rng 3 with
        | 1 -> ga := m :: !ga
        | 2 -> gb := m :: !gb
        | _ -> ())
      mids;
    (!ga, !gb)
  in
  let time = ref 0 in
  List.init ops (fun _ ->
      time := !time + 1 + Rng.int rng 150;
      let op =
        match Rng.int rng 10 with
        | 0 ->
          let ga, gb = groups () in
          Partition (ga, gb)
        | 1 -> Heal
        | 2 -> Duplicate (1 + Rng.int rng 2)
        | 3 ->
          let min_us = Rng.int rng 10 in
          Jitter (min_us, min_us + Rng.int rng 40)
        | 4 -> Loss (Rng.float rng 0.4)
        | 5 -> Corrupt (Rng.float rng 0.4)
        | _ ->
          Send
            {
              src = mid ();
              dst = (if Rng.int rng 4 = 0 then None else Some (mid ()));
              payload = payload ();
            }
      in
      (!time, op))

let apply_real bus = function
  | Send { src; dst; payload } ->
    let dst = match dst with Some m -> Frame.To m | None -> Frame.Broadcast in
    Bus.send bus ~src ~dst payload
  | Partition (ga, gb) -> Bus.set_partition bus (ga, gb)
  | Heal -> Bus.heal bus
  | Duplicate n -> Bus.duplicate_next ~count:n bus
  | Jitter (min_us, max_us) -> Bus.set_delay_jitter bus ~min_us ~max_us
  | Loss r -> Bus.set_loss_rate bus r
  | Corrupt r -> Bus.set_corruption_rate bus r

let apply_ref rbus = function
  | Send { src; dst; payload } ->
    let broadcast = dst = None in
    let dst = match dst with Some m -> m | None -> -1 in
    Ref_bus.send rbus ~src ~broadcast ~dst payload
  | Partition (ga, gb) -> Ref_bus.set_partition rbus (ga, gb)
  | Heal -> Ref_bus.heal rbus
  | Duplicate n -> Ref_bus.duplicate_next ~count:n rbus
  | Jitter (min_us, max_us) -> Ref_bus.set_delay_jitter rbus ~min_us ~max_us
  | Loss r -> Ref_bus.set_loss_rate rbus r
  | Corrupt r -> Ref_bus.set_corruption_rate rbus r

(* Run one schedule through both implementations, each on its own engine
   created from the same seed (so [Rng.split (Engine.rng e)] yields the
   same fault stream), and return both (receiver, time, wire) logs. *)
let diff_run ~script_seed ~n_mids ~ops =
  let rng = Rng.create ~seed:script_seed in
  (* sparse, non-contiguous mids: exercises the hashtable paths *)
  let mids = Array.init n_mids (fun i -> i * 3) in
  let schedule = gen_schedule rng ~mids ~ops in
  let engine_seed = 5000 + script_seed in
  let ea = Engine.create ~seed:engine_seed () in
  let bus = Bus.create ea in
  let log_a = ref [] in
  Array.iter
    (fun m ->
      Bus.attach bus ~mid:m ~rx:(fun f ->
          log_a := (m, Engine.now ea, Bytes.sub_string f.Frame.wire 0 f.Frame.len) :: !log_a))
    mids;
  List.iter
    (fun (time, op) ->
      Engine.schedule ea ~delay:time (fun () -> apply_real bus op))
    schedule;
  ignore (Engine.run ea);
  let eb = Engine.create ~seed:engine_seed () in
  let rbus = Ref_bus.create eb in
  let log_b = ref [] in
  Array.iter
    (fun m ->
      Ref_bus.attach rbus ~mid:m ~rx:(fun f ->
          log_b := (m, Engine.now eb, Bytes.to_string f.Ref_bus.wire) :: !log_b))
    mids;
  List.iter
    (fun (time, op) ->
      Engine.schedule eb ~delay:time (fun () -> apply_ref rbus op))
    schedule;
  ignore (Engine.run eb);
  (List.rev !log_a, List.rev !log_b)

let check_diff ~script_seed ~n_mids ~ops () =
  let log_a, log_b = diff_run ~script_seed ~n_mids ~ops in
  Alcotest.(check bool) "schedule not vacuous" true (List.length log_b > 0);
  Alcotest.(check (list (triple int int string)))
    "delivery logs identical" log_b log_a

let prop_bus_differential =
  QCheck.Test.make ~name:"array bus matches seed list bus on random schedules"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let log_a, log_b =
        diff_run ~script_seed:(seed + 1) ~n_mids:(2 + (seed mod 9)) ~ops:60
      in
      log_a = log_b)

(* ---- event heap: zero-alloc accessors agree with pop_min ---------------- *)

let prop_heap_soa_accessors =
  QCheck.Test.make ~name:"heap SoA accessors agree with pop_min" ~count:200
    QCheck.(list (pair small_nat bool))
    (fun ops ->
      let a = Heap.create ~filler:0 and b = Heap.create ~filler:0 in
      let seq = ref 0 in
      let ok = ref true in
      let drain_one () =
        if Heap.is_empty a then begin
          if Heap.pop_min b <> None then ok := false
        end
        else begin
          let k = Heap.min_key a and s = Heap.min_seq a and v = Heap.min_value a in
          Heap.drop_min a;
          match Heap.pop_min b with
          | Some (k', s', v') -> if (k, s, v) <> (k', s', v') then ok := false
          | None -> ok := false
        end
      in
      List.iter
        (fun (key, pop) ->
          if pop then drain_one ()
          else begin
            incr seq;
            Heap.push a ~key ~seq:!seq key;
            Heap.push b ~key ~seq:!seq key
          end)
        ops;
      while not (Heap.is_empty a) do
        drain_one ()
      done;
      !ok && Heap.pop_min b = None && Heap.length a = 0)

(* ---- deterministic replay of the open-loop SCALE workload --------------- *)

let test_replay_n64 () =
  let cfg = Openloop.config ~nodes:64 ~requests:2048 in
  let snapshot () =
    let r = Openloop.run cfg in
    let engine = Soda_core.Network.engine r.Openloop.net in
    let c = Engine.counters engine in
    ( ( r.Openloop.offered,
        r.Openloop.issued,
        r.Openloop.completed,
        r.Openloop.failed,
        r.Openloop.shed,
        r.Openloop.gathers,
        r.Openloop.virtual_us ),
      (c.Engine.scheduled, c.Engine.fired, c.Engine.cancelled),
      Engine.tag_counts engine )
  in
  let (res_a, counters_a, tags_a) = snapshot () in
  let (res_b, counters_b, tags_b) = snapshot () in
  let (offered, _, completed, _, _, _, _) = res_a in
  Alcotest.(check int) "all roots offered" 2048 offered;
  Alcotest.(check bool) "work completed" true (completed > 0);
  let (scheduled_a, fired_a, cancelled_a) = counters_a in
  let (scheduled_b, fired_b, cancelled_b) = counters_b in
  Alcotest.(check int) "scheduled identical" scheduled_a scheduled_b;
  Alcotest.(check int) "fired identical" fired_a fired_b;
  Alcotest.(check int) "cancelled identical" cancelled_a cancelled_b;
  Alcotest.(check (list (pair string int))) "tag breakdown identical" tags_a tags_b;
  Alcotest.(check bool) "full result identical" true (res_a = res_b)

(* ---- memory: a node keeps only what it uses ------------------------------ *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A fresh node (kernel, transport, NIC, no client) retains 934 words
   with the network's shared engine and bus spread over its 64 nodes.
   The bound leaves 5% headroom: the smallest waste it must catch, the
   bus's two histograms made with every bucket at creation, costs 59
   words a node (6%). A 256-slot pattern table made in associative mode
   costs 257, the 26 per-kind counter names built per node about 80. *)
let fresh_node_words = 980

let test_fresh_network_memory () =
  let before = live_words () in
  let net = Helpers.make_net 64 in
  let per_node = (live_words () - before) / 64 in
  ignore (Sys.opaque_identity net);
  Alcotest.(check bool)
    (Printf.sprintf "a fresh node retains at most %d words (retains %d)" fresh_node_words
       per_node)
    true
    (per_node <= fresh_node_words)

let suites =
  [
    ( "scale.wire",
      [
        Helpers.qcheck prop_encode_equals_seed_allocator;
        Helpers.qcheck prop_encode_into_at_offset;
        Helpers.qcheck prop_decode_sub_in_place;
        Helpers.qcheck prop_pooled_frame_seals_and_screens;
      ] );
    ( "scale.pool",
      [
        Alcotest.test_case "reuse after release" `Quick test_pool_reuse;
        Alcotest.test_case "size classes" `Quick test_pool_size_classes;
        Alcotest.test_case "a spread of lengths shares two classes" `Quick
          test_pool_spread_of_lengths;
        Helpers.qcheck prop_pool_never_aliases_live;
      ] );
    ( "scale.bus",
      [
        Alcotest.test_case "differential: dense small net" `Quick
          (check_diff ~script_seed:11 ~n_mids:6 ~ops:100);
        Alcotest.test_case "differential: mid-size net" `Quick
          (check_diff ~script_seed:23 ~n_mids:64 ~ops:80);
        Alcotest.test_case "differential: 512 stations" `Quick
          (check_diff ~script_seed:37 ~n_mids:512 ~ops:48);
        Helpers.qcheck prop_bus_differential;
      ] );
    ( "scale.heap",
      [ Helpers.qcheck prop_heap_soa_accessors ] );
    ( "scale.replay",
      [ Alcotest.test_case "open-loop N=64 deterministic replay" `Quick test_replay_n64 ] );
    ( "scale.memory",
      [ Alcotest.test_case "a fresh 64-node network" `Quick test_fresh_network_memory ] );
  ]
