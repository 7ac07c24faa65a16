module Heap = Soda_sim.Heap
module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Delay_line = Soda_sim.Delay_line

(* ---- heap ---------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~filler:"" in
  Heap.push h ~key:5 ~seq:0 "e";
  Heap.push h ~key:1 ~seq:1 "a";
  Heap.push h ~key:3 ~seq:2 "c";
  Heap.push h ~key:1 ~seq:3 "b";
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "min order with fifo ties" [ "a"; "b"; "c"; "e" ]
    (List.rev !order)

let test_heap_empty () =
  let h = Heap.create ~filler:() in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek_key h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None)

(* A popped value must not stay reachable from the heap: not from the slot
   it was stored in, nor from the root of a heap that emptied, nor from a
   freed slot of a heap that has grown and reuses its slots. *)
let[@inline never] push_capturing h ~key weak i =
  let payload = Bytes.make 64 'x' in
  Weak.set weak i (Some payload);
  Heap.push h ~key ~seq:i (fun () -> ignore (Sys.opaque_identity payload))

let[@inline never] pop_run h popped =
  popped.(Heap.min_seq h) <- true;
  (Heap.min_value h) ();
  Heap.drop_min h

let test_heap_releases_popped () =
  let h = Heap.create ~filler:(fun () -> ()) in
  let weak = Weak.create 2 in
  push_capturing h ~key:1 weak 0;
  push_capturing h ~key:2 weak 1;
  while not (Heap.is_empty h) do
    (Heap.min_value h) ();
    Heap.drop_min h
  done;
  Gc.full_major ();
  Alcotest.(check bool) "first popped value released" false (Weak.check weak 0);
  Alcotest.(check bool) "last popped value released" false (Weak.check weak 1);
  (* 100 pushes grow the heap to 128 entries; 60 pops free slots in the
     middle of the slot array; 100 more pushes reuse those and grow it to
     256. Every popped value is released while the rest are kept. *)
  let h = Heap.create ~filler:(fun () -> ()) in
  let weak = Weak.create 200 and popped = Array.make 200 false in
  let push_range lo hi =
    for i = lo to hi - 1 do
      push_capturing h ~key:(i * 37 mod 101) weak i
    done
  in
  let released () = List.filter (Weak.check weak) (List.init 200 Fun.id) = [] in
  let kept_exactly_unpopped () =
    List.for_all (fun i -> Weak.check weak i = not popped.(i)) (List.init 200 Fun.id)
  in
  push_range 0 100;
  for _ = 1 to 60 do
    pop_run h popped
  done;
  push_range 100 200;
  for _ = 1 to 70 do
    pop_run h popped
  done;
  Gc.full_major ();
  Alcotest.(check bool) "grown heap releases popped values, keeps queued ones" true
    (kept_exactly_unpopped ());
  while not (Heap.is_empty h) do
    pop_run h popped
  done;
  Gc.full_major ();
  Alcotest.(check bool) "drained grown heap holds no value" true (released ())

(* The swap heap this one replaced is the oracle. Three pushes to a pop
   grow the heap past 256 entries, three doublings of its initial 64;
   keys from 0..15 make most pops a tie broken by seq. Seqs are unique but
   not in push order, as with the engine's reserved ids. Both heaps must
   pop the same (key, seq, value) sequence and empty together. *)
let prop_heap_matches_reference =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun kr -> Some kr) (pair (int_bound 15) (int_bound 3))); (1, return None) ])
  in
  QCheck.Test.make ~name:"heap pops as the swap heap it replaced" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list (option (pair int int)))
       QCheck.Gen.(list_size (int_range 1024 2048) op))
    (fun ops ->
      let module R = Helpers.Ref_heap in
      let h = Heap.create ~filler:"" and r = R.create ~filler:"" in
      let same = ref true and highwater = ref 0 in
      let pop () =
        let got = Heap.pop_min h and want = R.pop_min r in
        same := !same && got = want
      in
      List.iteri
        (fun i op ->
          match op with
          | Some (key, shift) ->
            let seq = (shift * 4096) + i and value = string_of_int i in
            Heap.push h ~key ~seq value;
            R.push r ~key ~seq value;
            highwater := max !highwater (Heap.length h)
          | None -> pop ())
        ops;
      while not (Heap.is_empty h) do
        pop ()
      done;
      QCheck.assume (!highwater > 256);
      !same && R.length r = 0)

(* Warm structures allocate nothing: push/drop_min on a heap that holds
   2,000 entries, and arming and disarming a tagged timer (its tag was
   resolved when it was made; its heap grew in the warm-up). A tagged
   one-shot schedule allocates its shot record, 4 words, and nothing
   more: its tag lookup must not make a closure or an option. *)
let test_steady_state_allocates_nothing () =
  let nothing () = () in
  let h = Heap.create ~filler:nothing in
  for i = 0 to 1_999 do
    Heap.push h ~key:(i * 7_919 mod 2_000) ~seq:i nothing
  done;
  let before = Gc.minor_words () in
  for i = 2_000 to 101_999 do
    let key = Heap.min_key h + (i * 7_919 land 1_023) in
    Heap.drop_min h;
    Heap.push h ~key ~seq:i nothing
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "heap keeps its size" 2_000 (Heap.length h);
  Alcotest.(check bool) "100,000 push/drop_min cycles allocate nothing" true (words < 16.0);
  let e = Engine.create () in
  let tm = Engine.timer ~tag:"tick" e nothing in
  let cycle n =
    for _ = 1 to n do
      Engine.arm e tm ~delay:5;
      Engine.disarm e tm
    done
  in
  cycle 10_000;
  ignore (Engine.run e);
  let before = Gc.minor_words () in
  cycle 10_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "10,000 timer arm/disarm cycles allocate nothing" true (words < 16.0);
  let schedule_all n =
    for _ = 1 to n do
      Engine.schedule ~tag:"once" e ~delay:5 nothing
    done
  in
  schedule_all 10_000;
  ignore (Engine.run e);
  let before = Gc.minor_words () in
  schedule_all 10_000;
  let words = Gc.minor_words () -. before in
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "every arm and schedule counted" [ ("once", 20_000); ("tick", 20_000) ] (Engine.tag_counts e);
  Alcotest.(check bool)
    (Printf.sprintf "10,000 tagged schedules allocate only their 4-word records (%.0f words)"
       words)
    true
    (words >= 40_000.0 && words < 40_016.0)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create ~filler:() in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (k, _, ()) -> k >= last && drain k
      in
      drain min_int)

let prop_heap_preserves_multiset =
  QCheck.Test.make ~name:"heap returns exactly the pushed keys" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create ~filler:() in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain acc =
        match Heap.pop_min h with None -> acc | Some (k, _, ()) -> drain (k :: acc)
      in
      List.sort compare (drain []) = List.sort compare keys)

(* ---- delay line ------------------------------------------------------------ *)

let always _ _ _ = true

(* Interleaved pushes and drops (true = drop) come out in push order,
   each with the event id its push reserved, across growth and
   wrap-around, as from a [Queue]. *)
let prop_ring_fifo =
  QCheck.Test.make ~name:"ring pops in push order" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let l = Delay_line.create (Engine.create ()) ~delay:5 ~fill_a:"" ~fill_b:0 in
      let q = Queue.create () and next = ref 0 and ok = ref true in
      let drop () =
        match Queue.take_opt q with
        | None -> ok := !ok && Delay_line.length l = 0
        | Some i ->
          ok :=
            !ok && Delay_line.head_id l = i && Delay_line.head_n l = -i
            && Delay_line.head_a l = string_of_int i && Delay_line.head_b l = i;
          Delay_line.next l always
      in
      List.iter
        (fun pop ->
          if pop then drop ()
          else begin
            let i = !next in
            incr next;
            ok := !ok && Delay_line.push l ~fire:ignore () ~n:(-i) (string_of_int i) i = i;
            Queue.push i q
          end)
        ops;
      while not (Queue.is_empty q) do
        drop ()
      done;
      !ok && Delay_line.length l = 0)

(* Entries with delays of their own, zero and tied ones included, pushed
   between runs of the clock and mixed with [cancel] and [reset], fire at
   the same (time, id) as one-shots scheduled with the same delays on a
   twin engine, where a cancelled one-shot fires and does nothing. Each
   op is a (kind, value) pair: 0-4 push with delay [value], 5-6 run the
   clock [value] us on, 7 cancel the [value]-th newest live entry, 8
   cancel the live head, 9 reset. *)
let prop_per_entry_delays =
  QCheck.Test.make ~name:"per-entry delays fire like one-shots" ~count:300
    QCheck.(list (pair (int_bound 9) (int_bound 20)))
    (fun ops ->
      let e_line = Engine.create () and e_shot = Engine.create () in
      let l = Delay_line.create e_line ~delay:0 ~fill_a:(-1) ~fill_b:() in
      let dead = Hashtbl.create 16 in
      let live id _ () = not (Hashtbl.mem dead id) in
      (* the ids pushed and not yet fired or cancelled, newest first *)
      let pending = ref [] in
      let line_log = ref [] and shot_log = ref [] in
      let forget id = pending := List.filter (( <> ) id) !pending in
      let fire l =
        let id = Delay_line.head_id l and a = Delay_line.head_a l in
        Delay_line.next l live;
        forget id;
        line_log := (Engine.now e_line, id, a) :: !line_log
      in
      let cancel id =
        Hashtbl.replace dead id ();
        forget id;
        Delay_line.cancel l live id
      in
      List.iter
        (fun (kind, v) ->
          if kind <= 4 then begin
            let id = Delay_line.push_after l ~delay:v ~fire l ~n:0 v () in
            let id' = (Engine.counters e_shot).Engine.scheduled in
            assert (id = id');
            Engine.schedule e_shot ~delay:v (fun () ->
                if not (Hashtbl.mem dead id) then shot_log := (Engine.now e_shot, id, v) :: !shot_log);
            pending := id :: !pending
          end
          else if kind <= 6 then begin
            ignore (Engine.run e_line ~until:(Engine.now e_line + v));
            ignore (Engine.run e_shot ~until:(Engine.now e_shot + v))
          end
          else if kind = 7 then
            (match List.nth_opt !pending v with Some id -> cancel id | None -> ())
          else if kind = 8 then begin
            if Delay_line.length l > 0 then cancel (Delay_line.head_id l)
          end
          else begin
            List.iter (fun id -> Hashtbl.replace dead id ()) !pending;
            pending := [];
            Delay_line.reset l
          end)
        ops;
      ignore (Engine.run e_line);
      ignore (Engine.run e_shot);
      List.rev !line_log = List.rev !shot_log && Delay_line.length l = 0)

let[@inline never] push_payload l weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  ignore (Delay_line.push l ~fire:ignore () ~n:0 payload ())

let test_ring_steady_state () =
  let engine = Engine.create () in
  let l = Delay_line.create engine ~delay:1 ~fill_a:Bytes.empty ~fill_b:() in
  let weak = Weak.create 1 in
  push_payload l weak;
  Delay_line.next l always;
  Gc.full_major ();
  Alcotest.(check bool) "dropped payload released" false (Weak.check weak 0);
  (* Eight entries wait at any time: each one that comes due is replaced,
     so the ring wraps around and the timer re-arms on every shot. With
     delays of their own, 1 to 3 us, most entries go in ahead of the
     tail and some become the head, moving the timer. *)
  let steady name push_entry =
    let l = Delay_line.create engine ~delay:1 ~fill_a:Bytes.empty ~fill_b:() in
    let pushed = ref 0 and fired = ref 0 and limit = ref 100 in
    let rec refill l =
      incr fired;
      Delay_line.next l always;
      if !pushed < !limit then push l
    and push l =
      incr pushed;
      ignore (push_entry l ~fire:refill !pushed)
    in
    let run_to n =
      limit := n;
      for _ = 1 to 8 do
        push l
      done;
      ignore (Engine.run engine)
    in
    run_to 100;
    let before = Gc.minor_words () in
    run_to 10_100;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) (name ^ ": every entry fired") 10_100 !fired;
    Alcotest.(check bool) (name ^ ": bounded pushes allocate nothing after warm-up") true
      (words < 8.0)
  in
  steady "fixed delay" (fun l ~fire _ -> Delay_line.push l ~fire l ~n:0 Bytes.empty ());
  steady "own delays" (fun l ~fire i ->
      Delay_line.push_after l ~delay:(1 + (i * 7 mod 3)) ~fire l ~n:0 Bytes.empty ())

(* ---- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () -> ignore (Rng.int rng 0))

(* [Rng.int] allocates nothing on a warm generator, and draws what it
   drew when its rejection loop was a local closure. The last bound,
   2^31 + 1, rejects almost half of all 32-bit draws: its second draw
   here rejects two. *)
let test_rng_int_draws () =
  let rng = Rng.create ~seed:2024 in
  List.iter
    (fun (bound, want) ->
      let got = List.init 4 (fun _ -> Rng.int rng bound) in
      Alcotest.(check (list int)) (Printf.sprintf "first draws below %d" bound) want got)
    [
      (3, [ 2; 0; 0; 1 ]);
      (10, [ 1; 3; 0; 4 ]);
      (1_000, [ 231; 320; 710; 453 ]);
      (1_000_003, [ 239_903; 667_819; 502_017; 673_892 ]);
      (0x80000001, [ 754_080_675; 1_689_383_720; 1_108_032_779; 914_398_972 ]);
    ];
  let sink = ref 0 in
  let draw_all n =
    for _ = 1 to n do
      sink := !sink + Rng.int rng 0x80000001 + Rng.int rng 1_000
    done
  in
  draw_all 1_000;
  let before = Gc.minor_words () in
  draw_all 10_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "20,000 draws allocate nothing (%.0f words)" words)
    true (words < 16.0)

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr matches
  done;
  Alcotest.(check bool) "split streams decorrelated" true (!matches < 4)

let prop_rng_chance_extremes =
  QCheck.Test.make ~name:"chance 0 never fires, chance 1 always" ~count:50 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      (not (Rng.chance rng 0.0)) && Rng.chance rng 1.0)

let test_rng_uniformity () =
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 15% of uniform" true
        (abs (c - (n / 10)) < n * 15 / 100))
    buckets

(* ---- engine ----------------------------------------------------------------- *)

let test_engine_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := (`C, Engine.now e) :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := (`A, Engine.now e) :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := (`B, Engine.now e) :: !log);
  ignore (Engine.run e);
  Alcotest.(check int) "final time" 30 (Engine.now e);
  match List.rev !log with
  | [ (`A, 10); (`B, 20); (`C, 30) ] -> ()
  | _ -> Alcotest.fail "wrong event ordering"

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:7 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer e (fun () -> fired := true) in
  Engine.arm e tm ~delay:5;
  Engine.disarm e tm;
  Alcotest.(check int) "pending drops" 0 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check bool) "disarmed timer never fires" false !fired

let test_engine_rearm () =
  let e = Engine.create () in
  let log = ref [] in
  let tm = Engine.timer e (fun () -> log := Engine.now e :: !log) in
  Engine.arm e tm ~delay:5;
  Engine.arm e tm ~delay:8;  (* replaces the shot at 5 *)
  Alcotest.(check int) "one armed shot pending" 1 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fires once, at the re-armed time" [ 8 ] !log;
  Alcotest.(check int) "replaced shot moved no clock" 8 (Engine.now e);
  let id = Engine.reserve e in
  Engine.schedule e ~delay:0 (fun () -> log := -1 :: !log);
  Engine.arm_at e tm ~time:8 ~id;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "a reserved id runs before later ids at its instant"
    [ -1; 8; 8 ] !log

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:10 (fun () ->
      times := Engine.now e :: !times;
      ignore (Engine.schedule e ~delay:15 (fun () -> times := Engine.now e :: !times)));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "nested schedule relative to fire time" [ 10; 25 ]
    (List.rev !times)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule e ~delay:100 tick
  in
  Engine.schedule e ~delay:0 tick;
  ignore (Engine.run ~until:1000 e);
  Alcotest.(check bool) "bounded run stops" true (!count >= 10 && !count <= 12);
  Alcotest.(check int) "clock advanced to horizon" 1000 (Engine.now e)

let test_engine_stop () =
  let e = Engine.create () in
  let after = ref false in
  Engine.schedule e ~delay:1 (fun () -> Engine.stop e);
  Engine.schedule e ~delay:2 (fun () -> after := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "stop aborts the run" false !after

(* A run ended by [stop] leaves the clock where the stopping callback
   ran, not at the horizon, so the next run fires what is left at its own
   time and the clock never goes backwards. *)
let test_engine_run_after_stop () =
  let e = Engine.create () in
  let fired_at = ref [] in
  Engine.schedule e ~delay:1 (fun () -> Engine.stop e);
  Engine.schedule e ~delay:2 (fun () -> fired_at := Engine.now e :: !fired_at);
  Alcotest.(check int) "stopped run returns the stop time" 1 (Engine.run ~until:1000 e);
  Alcotest.(check int) "clock stays at the stop" 1 (Engine.now e);
  Alcotest.(check int) "next run reaches the horizon" 1000 (Engine.run ~until:1000 e);
  Alcotest.(check (list int)) "the rest fires at its own time" [ 2 ] !fired_at

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1) (fun () -> ()))

let test_engine_counters () =
  let e = Engine.create () in
  let cancelled = Engine.timer e (fun () -> ()) in
  Engine.arm e cancelled ~delay:5;
  Engine.schedule e ~delay:1 (fun () -> ());
  Engine.disarm e cancelled;
  Engine.disarm e cancelled;  (* double disarm is a no-op *)
  ignore (Engine.run e);
  let c = Engine.counters e in
  Alcotest.(check int) "scheduled" 2 c.Engine.scheduled;
  Alcotest.(check int) "fired" 1 c.Engine.fired;
  Alcotest.(check int) "cancelled" 1 c.Engine.cancelled;
  Alcotest.(check int) "pending" 0 c.Engine.pending;
  let m = Soda_obs.Metrics.create () in
  Engine.export_metrics e m ~prefix:"eng";
  Alcotest.(check int) "gauge scheduled" 2 (Soda_obs.Metrics.gauge m "eng.scheduled");
  Alcotest.(check int) "gauge clock" 1 (Soda_obs.Metrics.gauge m "eng.clock_us")

let test_engine_disarm_fired () =
  let e = Engine.create () in
  let tm = Engine.timer e (fun () -> ()) in
  Engine.arm e tm ~delay:3;
  ignore (Engine.run e);
  Engine.disarm e tm;
  Engine.disarm e tm;
  let c = Engine.counters e in
  Alcotest.(check int) "fired" 1 c.Engine.fired;
  Alcotest.(check int) "pending unchanged" 0 c.Engine.pending;
  Alcotest.(check int) "cancelled unchanged" 0 c.Engine.cancelled;
  Engine.arm e tm ~delay:2;
  ignore (Engine.run e);
  Alcotest.(check int) "re-armed after firing" 2 (Engine.counters e).Engine.fired;
  Alcotest.(check int) "clock" 5 (Engine.now e)

(* ---- engine vs. reference: random timer programs ------------------------ *)

(* A program runs at time 0 and in every callback. [Shot] schedules a
   one-shot running [body]; timer [k] runs [bodies.(k)] when it fires.
   [Reserve] takes an id due [delay] from now into a slot, and
   [Arm_reserved] arms a timer at a slot's (time, id) once. *)
type op =
  | Shot of int * op list
  | Arm of int * int  (* timer, delay *)
  | Disarm of int
  | Reserve of int * int  (* slot, delay *)
  | Arm_reserved of int * int  (* timer, slot *)

let n_timers = 3
let n_slots = 3

module type ENG = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> int
  val schedule : t -> delay:int -> (unit -> unit) -> unit
  val timer : t -> (unit -> unit) -> timer
  val reserve : t -> int
  val arm : t -> timer -> delay:int -> unit
  val arm_at : t -> timer -> time:int -> id:int -> unit
  val disarm : t -> timer -> unit
  val run : t -> int
end

module Real : ENG = struct
  include Engine

  let create () = Engine.create ()
  let schedule t ~delay fn = Engine.schedule t ~delay fn
  let timer t fn = Engine.timer t fn
  let run t = Engine.run t
end

(* Run a program; returns the (time, label) log of every callback and the
   final clock. Fuel bounds timers that re-arm themselves. *)
let exec (module E : ENG) (top, bodies) =
  let e = E.create () in
  let log = ref [] and fuel = ref 300 and labels = ref 0 in
  let slots = Array.make n_slots None in
  let timers = ref [||] in
  let rec fire label body =
    log := (E.now e, label) :: !log;
    if !fuel > 0 then begin
      decr fuel;
      List.iter op body
    end
  and op = function
    | Shot (delay, body) ->
      incr labels;
      let label = !labels in
      E.schedule e ~delay (fun () -> fire label body)
    | Arm (k, delay) -> E.arm e !timers.(k) ~delay
    | Disarm k -> E.disarm e !timers.(k)
    | Reserve (s, delay) -> slots.(s) <- Some (E.now e + delay, E.reserve e)
    | Arm_reserved (k, s) ->
      (match slots.(s) with
       | Some (time, id) when time >= E.now e ->
         slots.(s) <- None;
         E.arm_at e !timers.(k) ~time ~id
       | Some _ | None -> ())
  in
  timers := Array.init n_timers (fun k -> E.timer e (fun () -> fire (-1 - k) bodies.(k)));
  List.iter op top;
  let clock = E.run e in
  (List.rev !log, clock)

let gen_program =
  let open QCheck.Gen in
  let delay = int_range 0 12 in
  let timer = int_range 0 (n_timers - 1) and slot = int_range 0 (n_slots - 1) in
  let rec ops depth =
    list_size (int_range 0 4)
      (frequency
         ([ (3, map2 (fun k d -> Arm (k, d)) timer delay);
            (2, map (fun k -> Disarm k) timer);
            (2, map2 (fun s d -> Reserve (s, d)) slot delay);
            (3, map2 (fun k s -> Arm_reserved (k, s)) timer slot) ]
          @ if depth = 0 then []
            else [ (3, map2 (fun d body -> Shot (d, body)) delay (ops (depth - 1))) ]))
  in
  pair (ops 3) (array_repeat n_timers (ops 2))

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"timers match a schedule-plus-cancel reference" ~count:500
    (QCheck.make gen_program)
    (fun program ->
      exec (module Real) program = exec (module Helpers.Ref_engine) program)

let test_engine_profiling () =
  let e = Engine.create () in
  Engine.set_profile_gc e true;
  Engine.schedule ~tag:"alpha" e ~delay:1 (fun () -> ());
  Engine.schedule ~tag:"alpha" e ~delay:2 (fun () -> ());
  Engine.schedule ~tag:"beta" e ~delay:3 (fun () -> ());
  Engine.schedule e ~delay:4 (fun () -> ());  (* untagged: uncounted *)
  Alcotest.(check int) "heap high-water tracks pushes" 4 (Engine.heap_highwater e);
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "tag counts" [ ("alpha", 2); ("beta", 1) ] (Engine.tag_counts e);
  Alcotest.(check int) "high-water survives drain" 4 (Engine.heap_highwater e);
  (* A timer counts once per arm: not when made, not on a re-arm at the
     id it holds. A tag passed as another copy of a known tag's text
     counts into that tag. *)
  let _idle = Engine.timer ~tag:"idle" e ignore in
  let tm = Engine.timer ~tag:"gamma" e ignore in
  let copy = Engine.timer ~tag:(String.concat "" [ "be"; "ta" ]) e ignore in
  let id = Engine.reserve e in
  Engine.arm_at e tm ~time:(Engine.now e + 5) ~id;
  Engine.arm_at e tm ~time:(Engine.now e + 5) ~id;
  Engine.arm e copy ~delay:1;
  ignore (Engine.run e);
  Engine.arm e tm ~delay:2;
  Engine.disarm e tm;
  Alcotest.(check (list (pair string int)))
    "tag counts with timers" [ ("alpha", 2); ("beta", 2); ("gamma", 2) ] (Engine.tag_counts e);
  Alcotest.(check bool) "wall clock accrued" true (Engine.wall_seconds e >= 0.0);
  let minor, promoted, major = Engine.gc_words e in
  Alcotest.(check bool) "gc deltas non-negative" true
    (minor >= 0.0 && promoted >= 0.0 && major >= 0.0);
  let m = Soda_obs.Metrics.create () in
  Engine.export_metrics e m ~prefix:"eng";
  Alcotest.(check int) "tag gauge" 2 (Soda_obs.Metrics.gauge m "eng.tag.alpha");
  Alcotest.(check int) "timer tag gauge" 2 (Soda_obs.Metrics.gauge m "eng.tag.gamma");
  Alcotest.(check bool) "no gauge for a timer never armed" false
    (List.mem "eng.tag.idle" (Soda_obs.Metrics.gauge_names m));
  Alcotest.(check int) "heap gauge" 4 (Soda_obs.Metrics.gauge m "eng.heap_highwater");
  Alcotest.(check bool) "gc gauge present" true
    (List.mem "eng.gc_minor_words" (Soda_obs.Metrics.gauge_names m))


(* With profiling on, each tagged callback is charged to its tag, one-shots
   (whose shot record holds their tag's counter) and timers alike: the runs,
   and the minor words they allocate, exactly. The measurement allocates
   nothing of its own, so a callback that allocates nothing costs 0
   words; untagged callbacks are not charged. With profiling off nothing
   is charged. *)
let[@inline never] allocate_ten sink () = sink := Array.make 10 0

let test_engine_tag_costs () =
  let run ~profile =
    let e = Engine.create () in
    Engine.set_profile_gc e profile;
    let sink = ref [||] in
    for i = 1 to 100 do
      Engine.schedule ~tag:"alloc" e ~delay:i (allocate_ten sink);
      Engine.schedule ~tag:"quiet" e ~delay:i ignore;
      Engine.schedule e ~delay:i (allocate_ten sink)
    done;
    let tm = Engine.timer ~tag:"timer" e (allocate_ten sink) in
    Engine.arm e tm ~delay:7;
    ignore (Engine.run e);
    List.map
      (fun (c : Engine.tag_cost) -> (c.tag, (c.fired, c.words)))
      (Engine.tag_costs e)
  in
  Alcotest.(check (list (pair string (pair int int))))
    "fired and minor words per tag"
    [ ("alloc", (100, 1_100)); ("quiet", (100, 0)); ("timer", (1, 11)) ]
    (run ~profile:true);
  Alcotest.(check (list (pair string (pair int int)))) "nothing charged when off" []
    (run ~profile:false)

(* The run-level minor words cover everything the run allocated, so they
   are at least what the tagged callbacks were charged. A short run
   allocates far less than a minor heap, so a reading that moves only at
   a minor collection ([Gc.quick_stat] on OCaml 5) reads 0 here. *)
let test_engine_run_words () =
  let e = Engine.create () in
  Engine.set_profile_gc e true;
  let sink = ref [||] in
  for i = 1 to 100 do
    Engine.schedule ~tag:"alloc" e ~delay:i (allocate_ten sink)
  done;
  ignore (Engine.run e);
  let minor, _, _ = Engine.gc_words e in
  let charged = List.fold_left (fun acc (c : Engine.tag_cost) -> acc + c.words) 0 (Engine.tag_costs e) in
  Alcotest.(check int) "the callbacks were charged" 1_100 charged;
  Alcotest.(check bool)
    (Printf.sprintf "run-level minor words %.0f cover the per-tag %d" minor charged)
    true
    (minor >= float_of_int charged)

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering with ties" `Quick test_heap_ordering;
        Alcotest.test_case "empty heap" `Quick test_heap_empty;
        Alcotest.test_case "popped values released" `Quick test_heap_releases_popped;
        Helpers.qcheck prop_heap_sorted;
        Helpers.qcheck prop_heap_preserves_multiset;
        Helpers.qcheck prop_heap_matches_reference;
        Alcotest.test_case "steady state allocates nothing" `Quick
          test_steady_state_allocates_nothing;
      ] );
    ( "sim.ring",
      [
        Helpers.qcheck prop_ring_fifo;
        Helpers.qcheck prop_per_entry_delays;
        Alcotest.test_case "release and steady state" `Quick test_ring_steady_state;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Helpers.qcheck prop_rng_chance_extremes;
        Alcotest.test_case "int draws allocate nothing" `Quick test_rng_int_draws;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
        Alcotest.test_case "same-instant fifo" `Quick test_engine_same_instant_fifo;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "stop" `Quick test_engine_stop;
        Alcotest.test_case "run after stop" `Quick test_engine_run_after_stop;
        Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
        Alcotest.test_case "lifetime counters" `Quick test_engine_counters;
        Alcotest.test_case "re-arm and reserved ids" `Quick test_engine_rearm;
        Alcotest.test_case "disarming a fired timer" `Quick test_engine_disarm_fired;
        Helpers.qcheck prop_engine_matches_reference;
        Alcotest.test_case "profiling counters" `Quick test_engine_profiling;
        Alcotest.test_case "per-tag words and runs" `Quick test_engine_tag_costs;
        Alcotest.test_case "run-level words cover the tags" `Quick test_engine_run_words;
      ] );
  ]
