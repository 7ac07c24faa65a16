(* SCD-broadcast (lib/scd): wire-codec units, the algorithm and its
   derived objects on a healthy cluster, the discover-duplication
   regression from the multicast audit, hand-crafted fault plans, and
   the qcheck properties -- set-constrained delivery / containment of
   the delivered sets, plus snapshot-object and counter consistency,
   under random crash, partition, loss-burst and duplication plans.

   A failing case prints its (seed, workload, fault plan) triple; the
   plan is in the fault-plan file format, so saving it to plan.txt and
   running

     dune exec bin/sodal_run.exe -- --scd 3 --seed SEED --fault-plan plan.txt

   replays the exact schedule bit-for-bit (same harness underneath).
   Nightly soak runs scale the case count with SODA_SCD_CHECK_COUNT and
   shift the seed space with SODA_SCD_SEED. *)

open Helpers
module Fault_plan = Soda_fault.Fault_plan
module Scd_wire = Soda_proto.Scd_wire
module Scd = Soda_scd.Scd
module Harness = Soda_scd.Harness
module Bus = Soda_net.Bus
module Metrics = Soda_obs.Metrics
module Event = Soda_obs.Event
module Recorder = Soda_obs.Recorder

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let check_count = env_int "SODA_SCD_CHECK_COUNT" 120
let seed_base = env_int "SODA_SCD_SEED" 0

(* ---- wire codec -------------------------------------------------------- *)

(* A batch read through the in-place reader, as a list. *)
let read_batch b =
  match Scd_wire.check b with
  | Error e -> Error e
  | Ok () ->
    let rec entries o acc =
      if o = Bytes.length b then Ok (List.rev acc)
      else entries (Scd_wire.next b o) (Scd_wire.forward b o :: acc)
    in
    entries 0 []

(* One encoded frame is also a one-entry batch: it reads back as itself,
   and restamped it is the same message from another forwarder. *)
let test_wire_roundtrip () =
  let frames =
    [
      { Scd_wire.sd = 0; sn = 0; f = 0; snf = 0; payload = Scd_wire.Sync };
      { Scd_wire.sd = 3; sn = 41; f = 1; snf = 9;
        payload = Scd_wire.Write { reg = 7; value = -123_456_789_012; date = 5; writer = 2 } };
      { Scd_wire.sd = 65_535; sn = 0x7FFF_FFFF; f = 65_535; snf = 0x7FFF_FFFF;
        payload = Scd_wire.Incr { delta = min_int; origin = 12; oseq = 34 } };
    ]
  in
  List.iter
    (fun fwd ->
      let wire = Scd_wire.encode fwd in
      Alcotest.(check int)
        "encoded_size" (Bytes.length wire)
        (Scd_wire.encoded_size fwd);
      (match read_batch wire with
       | Ok [ fwd' ] ->
         Alcotest.(check bool)
           (Format.asprintf "%a" Scd_wire.pp fwd)
           true (Scd_wire.equal fwd fwd')
       | Ok l -> Alcotest.failf "read %d entries" (List.length l)
       | Error e -> Alcotest.failf "check failed: %s" e);
      let two = Bytes.cat wire wire in
      let again = Scd_wire.restamp two (Bytes.length wire) ~f:4 ~snf:77 in
      Alcotest.(check bool)
        (Format.asprintf "restamped %a" Scd_wire.pp fwd)
        true
        (Scd_wire.equal { fwd with f = 4; snf = 77 } (Scd_wire.forward again 0)))
    frames

let gen_forward =
  let open QCheck.Gen in
  let u16 = int_bound 0xFFFF and i32 = int_range (-0x8000_0000) 0x7FFF_FFFF in
  let payload =
    oneof
      [
        map
          (fun (reg, value, date, writer) -> Scd_wire.Write { reg; value; date; writer })
          (quad u16 int i32 u16);
        map
          (fun (delta, origin, oseq) -> Scd_wire.Incr { delta; origin; oseq })
          (triple int i32 i32);
        return Scd_wire.Sync;
      ]
  in
  map
    (fun ((sd, sn), (f, snf), payload) -> { Scd_wire.sd; sn; f; snf; payload })
    (triple (pair u16 i32) (pair u16 i32) payload)

let batch fwds = Bytes.concat Bytes.empty (List.map Scd_wire.encode fwds)

let test_wire_rejects_garbage () =
  let reject label b =
    match Scd_wire.check b with
    | Ok () -> Alcotest.failf "%s passed the check" label
    | Error _ -> ()
  in
  reject "empty" Bytes.empty;
  reject "truncated header" (Bytes.create 5);
  let b = Bytes.make 29 '\000' in
  Bytes.set b 0 '\xee';
  reject "unknown tag" b;
  let good =
    Scd_wire.encode
      { Scd_wire.sd = 1; sn = 2; f = 3; snf = 4;
        payload = Scd_wire.Incr { delta = 9; origin = 1; oseq = 2 } }
  in
  reject "truncated payload" (Bytes.sub good 0 (Bytes.length good - 1));
  (* a batch is rejected whole, never decoded up to the bad entry *)
  let sync = { Scd_wire.sd = 0; sn = 1; f = 0; snf = 1; payload = Scd_wire.Sync } in
  let incr = { sync with payload = Scd_wire.Incr { delta = 1; origin = 2; oseq = 3 } } in
  let b = batch [ sync; sync; incr ] in
  reject "batch with a truncated tail" (Bytes.sub b 0 (Bytes.length b - 1));
  reject "batch with a truncated last header" (Bytes.sub b 0 (Bytes.length b - 20));
  let b = Bytes.copy b in
  Bytes.set b (Scd_wire.encoded_size sync) '\x07';
  reject "batch with an unknown tag in the middle" b

(* A transfer's put data is the encoded frames back to back; decoding
   gives them back in order. *)
let prop_wire_batch_roundtrip =
  QCheck.Test.make ~name:"wire: batches of 1..k frames round-trip in order" ~count:300
    (QCheck.make
       ~print:(fun fwds ->
         String.concat "; " (List.map (Format.asprintf "%a" Scd_wire.pp) fwds))
       QCheck.Gen.(list_size (int_range 1 40) gen_forward))
    (fun fwds ->
      match read_batch (batch fwds) with
      | Ok fwds' -> List.equal Scd_wire.equal fwds fwds'
      | Error e -> QCheck.Test.fail_reportf "check failed: %s" e)

(* ---- healthy cluster ---------------------------------------------------- *)

(* n members on mids 0..n-1, one scripted client on mid n. *)
let with_cluster ?(n = 3) ?(regs = 2) ?trace ~seed script =
  let cost = { Cost.default with maxrequests = n + 2 } in
  let net, kernels = make_net ~seed ~cost ?trace (n + 1) in
  let mids = List.init n Fun.id in
  let members = Array.init n (fun index -> Scd.member ~cluster:"t" ~index ~mids ~regs) in
  List.iteri
    (fun mid kernel ->
      if mid < n then ignore (Sodal.attach kernel (Scd.member_spec members.(mid))))
    kernels;
  ignore
    (Sodal.attach (List.nth kernels n)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 50_000;
             let h = Scd.handle env ~cluster:"t" ~mids ~regs in
             script env h);
       });
  run net;
  (net, members)

let ts_testable = Alcotest.(triple int int int)

let test_objects_basic () =
  let snapshots = ref [] in
  let counts = ref [] in
  let _, members =
    with_cluster ~seed:61 (fun env h ->
        (match Scd.write env h ~reg:0 42 with
         | Ok _ -> ()
         | Error Scd.Unreachable -> Alcotest.fail "write unreachable");
        snapshots := [ Scd.snapshot env h ];
        ignore (Scd.write env h ~reg:1 7);
        ignore (Scd.write env h ~reg:0 43);
        snapshots := Scd.snapshot env h :: !snapshots;
        ignore (Scd.incr env h ~delta:5);
        ignore (Scd.incr env h ~delta:6);
        counts := [ Scd.cread env h ])
  in
  (match !snapshots with
   | [ Ok s2; Ok s1 ] ->
     Alcotest.(check int) "first snapshot sees the write" 42 (fst s1.(0));
     Alcotest.(check int) "second snapshot: reg 0 overwritten" 43 (fst s2.(0));
     Alcotest.(check int) "second snapshot: reg 1" 7 (fst s2.(1));
     let _, (d1, _, _) = s1.(0) and _, (d2, _, _) = s2.(0) in
     Alcotest.(check bool) "overwrite advanced the date" true (d2 > d1)
   | _ -> Alcotest.fail "snapshots did not complete");
  (match !counts with
   | [ Ok c ] -> Alcotest.(check int) "counter totals the increments" 11 c
   | _ -> Alcotest.fail "cread did not complete");
  (* all members applied the same final state *)
  Array.iter
    (fun m ->
      Alcotest.(check int) "register 0 converged" 43 (fst (Scd.registers m).(0));
      Alcotest.(check int) "counter converged" 11 (Scd.counter_value m))
    members

(* Every member sends exactly one FORWARD per peer per message, so a
   healthy loss-free run costs exactly n(n-1) frames per broadcast --
   the O(n^2) bound the bench gates against. *)
let test_quadratic_message_cost () =
  let net, members =
    with_cluster ~seed:62 (fun env h ->
        ignore (Scd.write env h ~reg:0 1);
        ignore (Scd.incr env h ~delta:2);
        ignore (Scd.snapshot env h))
  in
  let broadcasts =
    Array.fold_left (fun acc m -> acc + List.length (Scd.broadcast_sns m)) 0 members
  in
  let metrics = Soda_obs.Recorder.metrics (Network.recorder net) in
  Alcotest.(check bool) "some broadcasts happened" true (broadcasts > 0);
  Alcotest.(check int) "forwards = n(n-1) per broadcast"
    (broadcasts * 3 * 2)
    (Metrics.counter metrics "scd.forwards");
  Alcotest.(check int) "broadcast counter agrees" broadcasts
    (Metrics.counter metrics "scd.broadcasts")

let test_deliveries_well_formed () =
  let r = Harness.run ~n:3 ~clients:2 ~ops:6 ~regs:2 ~seed:63 () in
  Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
  List.iter
    (fun (op : Harness.op) ->
      if op.outcome = Harness.Failed then
        Alcotest.failf "op failed on a healthy cluster:\n%s"
          (Format.asprintf "%a" Harness.pp_history r.history))
    r.history;
  (match Harness.check_delivery r with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match Harness.check_objects r with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  match Harness.check_convergence r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* write timestamps are unique and returned to the writer *)
let test_write_timestamps () =
  let results = ref [] in
  ignore
    (with_cluster ~seed:64 (fun env h ->
         for i = 1 to 4 do
           match Scd.write env h ~reg:0 i with
           | Ok ts -> results := ts :: !results
           | Error Scd.Unreachable -> Alcotest.fail "unreachable"
         done));
  let tss = List.rev !results in
  Alcotest.(check int) "four writes" 4 (List.length tss);
  Alcotest.(check (list ts_testable))
    "timestamps strictly increase" tss (List.sort_uniq compare tss)

(* ---- multicast duplication audit (satellite regression) ------------------ *)

(* A duplicated DISCOVER broadcast used to trigger a second staggered
   Discover_reply from every matcher; the responder now dedupes by
   (src, tid) and counts the replay. *)
let test_discover_duplication_deduped () =
  let net, kernels = make_net ~seed:65 3 in
  let pattern = Pattern.well_known 0o741 in
  List.iter (fun k -> ignore (echo_server k pattern)) [ List.nth kernels 1; List.nth kernels 2 ];
  let found = ref None in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 20_000;
             (* arm the bus so the DISCOVER frame itself is doubled *)
             Bus.duplicate_next (Network.bus net);
             found := Some (Sodal.discover env pattern));
       });
  run net;
  Alcotest.(check bool) "discover still resolves" true (!found <> None);
  List.iter
    (fun responder ->
      let stats = Kernel.stats (List.nth kernels responder) in
      Alcotest.(check int)
        (Printf.sprintf "responder %d matched the discover once" responder)
        1
        (Metrics.counter stats "discover.matched");
      Alcotest.(check bool)
        (Printf.sprintf "responder %d saw the replay" responder)
        true
        (Metrics.counter stats "discover.duped" >= 1))
    [ 1; 2 ]

(* ---- hand-crafted fault plans ------------------------------------------- *)

let assert_safe ?(liveness = true) (r : Harness.result) =
  if liveness then begin
    Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
    List.iter
      (fun (op : Harness.op) ->
        if op.outcome = Harness.Failed then
          Alcotest.failf "op failed with a majority reachable:\n%s"
            (Format.asprintf "%a" Harness.pp_history r.history))
      r.history
  end;
  (match Harness.check_delivery r with
   | Ok () -> ()
   | Error m ->
     Alcotest.failf "%s\n%s" m (Format.asprintf "%a" Harness.pp_history r.history));
  match Harness.check_objects r with
  | Ok () -> ()
  | Error m ->
    Alcotest.failf "%s\n%s" m (Format.asprintf "%a" Harness.pp_history r.history)

(* Gap marks still set at the end, over the pairs of members [live]
   admits: gaps a receiver saw and never closed. *)
let open_gaps ?(live = fun _ -> true) (r : Harness.result) =
  let gaps = ref 0 in
  Array.iteri
    (fun i m ->
      Array.iteri (fun j _ -> if live i && live j && Scd.gap m j then incr gaps) r.members)
    r.members;
  !gaps

let test_survives_minority_crash () =
  let plan = [ { Fault_plan.at_us = 400_000; action = Fault_plan.Crash 0 } ] in
  assert_safe
    (Harness.run ~n:3 ~clients:2 ~ops:6 ~regs:2 ~seed:(seed_base + 66) ~plan ())

let test_partition_heals_and_converges () =
  let plan =
    [
      { Fault_plan.at_us = 300_000; action = Fault_plan.Partition ([ 0 ], [ 1; 2; 3; 4 ]) };
      { Fault_plan.at_us = 900_000; action = Fault_plan.Heal };
    ]
  in
  let r = Harness.run ~n:3 ~clients:2 ~ops:6 ~regs:2 ~seed:(seed_base + 67) ~plan () in
  assert_safe r;
  match Harness.check_convergence r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Member 2 is cut off while one client (proxied by member 0) runs its
   script, so members 0 and 1 queue a FORWARD for it per message. Each
   retry carries the longest prefix of the channel that fits one put, so
   after the heal the backlog arrives in fewer transfers than FORWARD
   messages: in-order prefixes of FIFO channels, which keep delivery and
   objects safe. *)
let test_backlog_batched_after_heal () =
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Partition ([ 2 ], [ 0; 1; 3 ]) };
      { Fault_plan.at_us = 1_500_000; action = Fault_plan.Heal };
    ]
  in
  let r =
    Harness.run ~n:3 ~clients:1 ~ops:6 ~regs:2 ~think_us:0 ~seed:(seed_base + 70) ~plan ()
  in
  assert_safe r;
  (match Harness.check_convergence r with Ok () -> () | Error m -> Alcotest.fail m);
  let metrics = Soda_obs.Recorder.metrics (Network.recorder r.net) in
  let broadcasts = Metrics.counter metrics "scd.broadcasts" in
  let transfers =
    Metrics.counter (Kernel.stats (Network.node r.net ~mid:2)) "req.delivered"
  in
  Alcotest.(check int) "no stamp missing at the end" 0 (Harness.stamps_missing r);
  Alcotest.(check bool)
    (Printf.sprintf "%d transfers carry the %d FORWARDs to member 2" transfers
       (2 * broadcasts))
    true
    (transfers > 0 && transfers < 2 * broadcasts)

(* Member 2 is down from the start while one client (proxied by member
   0) runs six operations. *)
let member_2_down ~horizon_us =
  let plan = [ { Fault_plan.at_us = 0; action = Fault_plan.Crash 2 } ] in
  Harness.run ~n:3 ~clients:1 ~ops:6 ~regs:2 ~think_us:0 ~seed:71 ~plan ~horizon_us ()

(* Member 2 is down for good. Members 0 and 1 each make one FORWARD per
   message, and their channels to member 2 keep every one of them, however
   many transfers fail: by 29 s each FORWARD to member 2 has been retried
   25 times on average, where a channel used to give a FORWARD up after
   25 crash verdicts. The channels between the live members drain. *)
let test_down_member_keeps_backlog () =
  let r = member_2_down ~horizon_us:29_000_000 in
  assert_safe r;
  let metrics = Recorder.metrics (Network.recorder r.net) in
  let broadcasts = Metrics.counter metrics "scd.broadcasts" in
  Alcotest.(check bool) "some broadcasts happened" true (broadcasts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d retried FORWARDs: 25 per FORWARD to member 2"
       (Metrics.counter metrics "scd.retry_frames"))
    true
    (Metrics.counter metrics "scd.retry_frames" >= 25 * 2 * broadcasts);
  Array.iteri
    (fun i m ->
      if i < 2 then
        Alcotest.(check int)
          (Printf.sprintf "member %d's channel to member 2 keeps every FORWARD it made" i)
          broadcasts (Scd.retry_depth m))
    r.members;
  Alcotest.(check int) "the live members miss no stamp of each other" 0
    (Harness.stamps_missing ~live:(fun i -> i <> 2) r)

(* Words allocated straight in the major heap while [f] runs: blocks too
   large for the minor heap, such as a transfer's 4,096-byte reply
   buffer. *)
let direct_major_words f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  (r, major1 -. promoted1 -. (major0 -. promoted0))

(* A retrying channel gets its replies in one buffer of its own: fifteen
   more seconds of retries to a dead member, dozens of transfers, cost
   less than one more reply buffer. *)
let test_retry_reuses_reply_buffer () =
  let short, short_words = direct_major_words (fun () -> member_2_down ~horizon_us:5_000_000) in
  let long, long_words = direct_major_words (fun () -> member_2_down ~horizon_us:20_000_000) in
  let retries (r : Harness.result) =
    Metrics.counter (Recorder.metrics (Network.recorder r.net)) "scd.retry_frames"
  in
  Alcotest.(check bool) "the longer run retried more" true (retries long > retries short);
  let buffer_words = float_of_int (1 + (Cost.default.Cost.max_data_bytes / (Sys.word_size / 8))) in
  Alcotest.(check bool)
    (Printf.sprintf "the longer run allocated %.0f more major words (a reply buffer is %.0f)"
       (long_words -. short_words) buffer_words)
    true
    (long_words -. short_words < buffer_words)

(* Member 2 is down for 40 s, well past the 25 crash verdicts after which
   a channel used to give a FORWARD up, while one client runs twenty
   operations at a 4 s mean interarrival. State survives the reboot, and
   the live members' channels still keep every FORWARD for it, so it
   catches up in stamp order: the run converges with no stamp missing. *)
let test_pinned_outage_40s () =
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Crash 2 };
      { Fault_plan.at_us = 40_000_000; action = Fault_plan.Reboot 2 };
    ]
  in
  let r =
    Harness.run ~n:3 ~clients:1 ~ops:20 ~mean_interarrival_us:4_000_000 ~seed:5 ~plan
      ~horizon_us:85_000_000 ()
  in
  assert_safe r;
  (match Harness.check_convergence r with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "no stamp missing at the end" 0 (Harness.stamps_missing r)

let test_duplication_is_idempotent () =
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Duplicate_next 40 };
      { Fault_plan.at_us = 500_000; action = Fault_plan.Duplicate_next 40 };
    ]
  in
  let r = Harness.run ~n:3 ~clients:2 ~ops:6 ~regs:2 ~seed:(seed_base + 68) ~plan () in
  assert_safe r;
  match Harness.check_convergence r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_loss_burst_safety () =
  let plan =
    [
      { Fault_plan.at_us = 100_000;
        action = Fault_plan.Loss_burst { rate = 0.25; duration_us = 300_000 } };
    ]
  in
  (* the medium degrades: crash verdicts (hence Failed ops) are
     legitimate, only safety is asserted *)
  assert_safe ~liveness:false
    (Harness.run ~n:3 ~clients:2 ~ops:6 ~regs:2 ~seed:(seed_base + 69) ~plan ())

(* ---- the pump ------------------------------------------------------------- *)

(* A two-member cluster whose member 1 is scripted, so the test sees the
   exact FORWARDs member 0 sends it. The script first puts five messages
   of its own at member 0 while the cluster pattern is unadvertised:
   member 0 echoes each into its channel back, and its transfer of them
   comes back UNADVERTISED, so the channel backs off holding all five.
   Then the script advertises and sends one EXCHANGE carrying two more
   messages. Member 0's handler answers it with the five queued echoes
   (both backlogs in one transfer), and its next transfer carries only
   the two new echoes: the reply's prefix was popped, and member 0's
   clock stamps reach the peer in order. *)
let test_exchange_drains_both_directions () =
  let cost = { Cost.default with maxrequests = 4 } in
  let net, kernels = make_net ~seed:72 ~cost 2 in
  let mids = [ 0; 1 ] in
  let m0 = Scd.member ~cluster:"x" ~index:0 ~mids ~regs:1 in
  ignore (Sodal.attach (List.nth kernels 0) (Scd.member_spec m0));
  let cluster_pat = Scd.cluster_pattern ~cluster:"x" in
  let fwd sn = { Scd_wire.sd = 1; sn; f = 1; snf = sn; payload = Scd_wire.Sync } in
  let batch_of sns = Bytes.concat Bytes.empty (List.map (fun sn -> Scd_wire.encode (fwd sn)) sns) in
  let decode b =
    match read_batch b with
    | Ok fwds -> List.map (fun (f : Scd_wire.forward) -> (f.sd, f.sn, f.f, f.snf)) fwds
    | Error e -> Alcotest.failf "member 0 sent garbage: %s" e
  in
  let reply = ref [] and puts = ref [] and unadvertised = ref false in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         on_request =
           (fun env info ->
             let into = Bytes.create info.Sodal.put_size in
             let _, got = Sodal.accept_current_exchange env ~arg:0 ~into ~data:Bytes.empty in
             puts := !puts @ [ decode (Bytes.sub into 0 got) ]);
         task =
           (fun env ->
             Sodal.compute env 20_000;
             let sv = Sodal.server ~mid:0 ~pattern:cluster_pat in
             ignore (Sodal.b_put env sv ~arg:0 (batch_of [ 0; 1; 2; 3; 4 ]));
             Sodal.compute env 100_000;
             unadvertised := !puts = [];
             Sodal.advertise env cluster_pat;
             let into = Bytes.create cost.Cost.max_data_bytes in
             let c = Sodal.b_exchange env sv ~arg:0 (batch_of [ 5; 6 ]) ~into in
             reply := decode (Bytes.sub into 0 c.Sodal.get_transferred);
             Sodal.serve env);
       });
  run ~horizon:2.0 net;
  let echoes sns = List.map (fun sn -> (1, sn, 0, sn)) sns in
  Alcotest.(check bool) "member 0's first transfer found nothing advertised" true !unadvertised;
  let flat l = List.map (fun (a, b, c, d) -> ((a, b), (c, d))) l in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "the EXCHANGE's reply carried member 0's backlog, in order" (flat (echoes [ 0; 1; 2; 3; 4 ]))
    (flat !reply);
  Alcotest.(check (list (list (pair (pair int int) (pair int int)))))
    "then one transfer with the two new echoes" [ flat (echoes [ 5; 6 ]) ] (List.map flat !puts);
  Alcotest.(check int) "member 0's channel is empty" 0 (Scd.retry_depth m0)

(* Go-back-N on a two-member cluster whose member 1 is scripted. The
   script sends member 0 its stamps 0 and 1, and member 0 echoes both
   back; the script's reply reports cursor 0, as if it had taken
   neither, which rewinds nothing (a plain report never does). Its
   next EXCHANGE skips stamp 2 and reports a gap at 0: member 0 goes
   back to 0 and its reply claims from there. Member 0 drops stamps 3
   and 4, ahead of its cursor, and having nothing else to send polls
   the script with an empty put reporting its gap at 2. Once stamps 2
   to 4 arrive in a row, member 0 takes them and its next transfer
   reports a plain cursor again. *)
let test_gap_goes_back_n () =
  (* a gap report: the cursor with the flag bit above every stamp *)
  let gap c = (1 lsl 30) lor c in
  let net, kernels = make_net ~seed:75 2 in
  let m0 = Scd.member ~cluster:"x" ~index:0 ~mids:[ 0; 1 ] ~regs:1 in
  ignore (Sodal.attach (List.nth kernels 0) (Scd.member_spec m0));
  let cluster_pat = Scd.cluster_pattern ~cluster:"x" in
  let batch_of sns =
    Bytes.concat Bytes.empty
      (List.map
         (fun sn ->
           Scd_wire.encode { Scd_wire.sd = 1; sn; f = 1; snf = sn; payload = Scd_wire.Sync })
         sns)
  in
  let stamps b =
    match if Bytes.length b = 0 then Ok [] else read_batch b with
    | Ok fwds -> List.map (fun (f : Scd_wire.forward) -> f.snf) fwds
    | Error e -> Alcotest.failf "member 0 sent garbage: %s" e
  in
  (* what member 0's transfers carried: (its report, its stamps) *)
  let transfers = ref [] and replies = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env cluster_pat);
         on_request =
           (fun env info ->
             let into = Bytes.create info.Sodal.put_size in
             let _, got = Sodal.accept_current_exchange env ~arg:0 ~into ~data:Bytes.empty in
             transfers := !transfers @ [ (info.Sodal.arg, stamps (Bytes.sub into 0 got)) ]);
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:cluster_pat in
             let into = Bytes.create Cost.default.Cost.max_data_bytes in
             List.iter
               (fun (arg, sns) ->
                 Sodal.compute env 100_000;
                 let c = Sodal.b_exchange env sv ~arg (batch_of sns) ~into in
                 replies := !replies @ [ stamps (Bytes.sub into 0 c.Sodal.get_transferred) ])
               [ (0, [ 0; 1 ]); (gap 0, [ 3; 4 ]); (0, [ 2; 3; 4 ]) ];
             Sodal.serve env);
       });
  run ~horizon:2.0 net;
  let metrics = Recorder.metrics (Network.recorder net) in
  Alcotest.(check (list (list int)))
    "after the gap report the reply starts at the cursor" [ []; [ 0; 1 ]; [] ] !replies;
  Alcotest.(check (list (pair int (list int))))
    "member 0's reports and runs: plain, gap poll, plain"
    [ (2, [ 0; 1 ]); (gap 2, []); (5, [ 2; 3; 4 ]) ]
    !transfers;
  List.iter
    (fun (name, n) -> Alcotest.(check int) name n (Metrics.counter metrics name))
    [ ("scd.gaps", 2); ("scd.gap_polls", 1); ("scd.rewinds", 1) ];
  Alcotest.(check int) "member 0 took every stamp" 5 (Scd.next_stamp m0 1);
  Alcotest.(check bool) "and its gap mark is clear" false (Scd.gap m0 1)

(* A peer that refuses a transfer took none of it: member 0's first
   transfer of stamps 0 and 1 to the script is rejected, so the channel
   backs off and sends them again, and the script takes both once. *)
let test_rejected_transfer_is_retried () =
  let net, kernels = make_net ~seed:76 2 in
  let m0 = Scd.member ~cluster:"x" ~index:0 ~mids:[ 0; 1 ] ~regs:1 in
  ignore (Sodal.attach (List.nth kernels 0) (Scd.member_spec m0));
  let cluster_pat = Scd.cluster_pattern ~cluster:"x" in
  let batch_of sns =
    Bytes.concat Bytes.empty
      (List.map
         (fun sn ->
           Scd_wire.encode { Scd_wire.sd = 1; sn; f = 1; snf = sn; payload = Scd_wire.Sync })
         sns)
  in
  let rejected = ref 0 and taken = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env cluster_pat);
         on_request =
           (fun env info ->
             if !rejected = 0 then begin
               incr rejected;
               Sodal.reject env
             end
             else begin
               let into = Bytes.create info.Sodal.put_size in
               let _, got =
                 Sodal.accept_current_exchange env ~arg:2 ~into ~data:Bytes.empty
               in
               match read_batch (Bytes.sub into 0 got) with
               | Ok fwds ->
                 taken := !taken @ List.map (fun (f : Scd_wire.forward) -> f.snf) fwds
               | Error e -> Alcotest.failf "member 0 sent garbage: %s" e
             end);
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:cluster_pat in
             let into = Bytes.create Cost.default.Cost.max_data_bytes in
             Sodal.compute env 100_000;
             ignore (Sodal.b_exchange env sv ~arg:0 (batch_of [ 0; 1 ]) ~into);
             Sodal.serve env);
       });
  run ~horizon:2.0 net;
  Alcotest.(check int) "one transfer refused" 1 !rejected;
  Alcotest.(check (list int)) "its stamps sent again and taken once" [ 0; 1 ] !taken

(* Member 3 of four is cut off for the whole run. Each member's first
   transfer to it occupies the member's healthy slot until its crash verdict
   (about 0.8 s here); from then on the channel retries every 200-300 ms,
   and each retry again waits out a verdict. A retrying channel does not
   take the slot, so meanwhile the other channels keep delivering and
   every later operation completes in tens of milliseconds. *)
let test_partition_does_not_stall_other_channels () =
  let plan = [ { Fault_plan.at_us = 0; action = Fault_plan.Partition ([ 3 ], [ 0; 1; 2; 4 ]) } ] in
  let r = Harness.run ~n:4 ~clients:1 ~ops:40 ~regs:2 ~think_us:0 ~seed:(seed_base + 73) ~plan () in
  assert_safe r;
  let metrics = Recorder.metrics (Network.recorder r.net) in
  let late = List.filter (fun (o : Harness.op) -> o.start_us >= 1_000_000) r.history in
  Alcotest.(check bool) "ops ran past the first verdicts" true (List.length late >= 20);
  Alcotest.(check bool) "the cut-off channels kept retrying" true
    (Metrics.counter metrics "scd.retry_frames" >= 6);
  List.iter
    (fun (o : Harness.op) ->
      let took = o.end_us - o.start_us in
      Alcotest.(check bool)
        (Printf.sprintf "op %d at %d us took %d us (under 100 ms)" o.index o.start_us took)
        true (took < 100_000))
    late

(* With no faults, a member's transfers are clocked by their own
   completions: while its channels have a backlog, each launch follows
   the previous transfer's completion by exactly the completion
   interrupt's context switch plus the REQUEST trap, with no pacing gap
   or polling tick in between. One snapshot on four members: its proxy
   echoes the message to its three peers back to back. *)
let test_launches_follow_completions () =
  let net, _ =
    with_cluster ~n:4 ~trace:true ~seed:74 (fun env h -> ignore (Scd.snapshot env h))
  in
  let cost = Network.cost net in
  let cluster_pat = Pattern.to_int (Scd.cluster_pattern ~cluster:"t") in
  let tids = Hashtbl.create 8 in
  let launches = ref [] and completions = ref [] in
  List.iter
    (fun (e : Event.t) ->
      if e.mid = 0 then
        match e.kind with
        | Event.Trap { tid; pattern; _ } when pattern = cluster_pat ->
          Hashtbl.replace tids tid ();
          launches := e.time_us :: !launches
        | Event.Complete { tid; _ } when Hashtbl.mem tids tid ->
          completions := e.time_us :: !completions
        | _ -> ())
    (Recorder.events (Network.recorder net));
  let launches = List.rev !launches and completions = List.rev !completions in
  Alcotest.(check int) "one transfer per peer" 3 (List.length launches);
  let gap = cost.Cost.context_switch_us + cost.Cost.request_trap_us in
  List.iteri
    (fun i at ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "launch %d at the previous completion + %d us" i gap)
          (List.nth completions (i - 1) + gap)
          at)
    launches

(* Pinned scd.prop cases: member 0 is cut off from every other node at
   [at_us] and the cut heals at [heal_us]; every client must finish, and
   the history must be safe and converge. *)
let pinned_cut ~seed ~ops ~regs ~think_us ~at_us ~heal_us () =
  let plan =
    [
      { Fault_plan.at_us; action = Fault_plan.Partition ([ 0 ], [ 1; 2; 3; 4; 5 ]) };
      { Fault_plan.at_us = heal_us; action = Fault_plan.Heal };
    ]
  in
  let r = Harness.run ~n:3 ~clients:2 ~ops ~regs ~think_us ~seed ~plan () in
  assert_safe r;
  match Harness.check_convergence r with Ok () -> () | Error m -> Alcotest.fail m

(* A server record whose ACCEPT's reliable send timed out must still
   expire; if it lived on, probes kept answering "alive" and the
   requester waited for an ACCEPT that never came, so a client hung. *)
let test_pinned_partition_heal_68403 =
  pinned_cut ~seed:68403 ~ops:7 ~regs:2 ~think_us:0 ~at_us:173_344 ~heal_us:551_667

(* The cut falls just as a transfer whose reply carried a backlog
   completes: the requester had the ACCEPT and popped its prefix, then
   the peer's ACCEPT timed out. The peer must keep the put data that had
   arrived; dropping it lost FORWARDs on a healthy channel, and members
   0 and 2 delivered two messages in crossed order. *)
let test_pinned_partition_heal_82049 =
  pinned_cut ~seed:82049 ~ops:8 ~regs:3 ~think_us:25_000 ~at_us:281_028 ~heal_us:584_269

(* Pinned scd.prop cases under a loss burst: the reply a member's kernel
   keeps is queued by its task only when the EXCHANGE completes, and a
   lost ack delays that completion past the next transfer on the same
   channel, whose FORWARD the peer's handler queues first. Member 2 then
   knew a later stamp of member 0 before an earlier one, delivered {2.0}
   alone while member 0 delivered {1.0} alone, and containment failed.
   The receiver now takes only a forwarder's next stamp and drops one
   ahead of it, and the forwarder goes back to the gap. Only safety is
   asserted, as for every burst, and that every stamp was taken in the
   end. *)
let pinned_burst ~seed ~ops ~think_us ~at_us ~rate ~duration_us () =
  let plan =
    [ { Fault_plan.at_us; action = Fault_plan.Loss_burst { rate; duration_us } } ]
  in
  let r = Harness.run ~n:3 ~clients:3 ~ops ~regs:2 ~think_us ~seed ~plan () in
  Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
  assert_safe ~liveness:false r;
  Alcotest.(check int) "no stamp missing at the end" 0 (Harness.stamps_missing r)

let test_pinned_burst_64369 =
  pinned_burst ~seed:64369 ~ops:8 ~think_us:0 ~at_us:5834 ~rate:0.31 ~duration_us:163726

let test_pinned_burst_69055 =
  pinned_burst ~seed:69055 ~ops:6 ~think_us:250_000 ~at_us:605978 ~rate:0.35
    ~duration_us:293996

(* Pinned cases where one end of a transfer passed a batch the other
   never took: members [group] are cut off from everyone else at [at_us]
   and the cut heals at [heal_us]. The forwarder's later FORWARDs used
   to wait behind the gap for good; now the receiver drops them and
   reports the gap, and the forwarder goes back to it, so every member
   ends up with every stamp of every peer. *)
let pinned_gap ?(trace = false) ~seed ~clients ~ops ~regs ~think_us ~group ~at_us ~heal_us () =
  let others = List.filter (fun mid -> not (List.mem mid group)) (List.init 8 Fun.id) in
  let plan =
    [
      { Fault_plan.at_us; action = Fault_plan.Partition (group, others) };
      { Fault_plan.at_us = heal_us; action = Fault_plan.Heal };
    ]
  in
  let r = Harness.run ~n:5 ~clients ~ops ~regs ~think_us ~seed ~plan ~trace () in
  assert_safe r;
  (match Harness.check_convergence r with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "no gap mark left" 0 (open_gaps r);
  Alcotest.(check int) "every member took every stamp of every peer" 0
    (Harness.stamps_missing r);
  r

(* Member 0 lacked 8 stamps of member 2, holding 6 of them. Its gap
   reports are flagged cursors, not negative arguments, so no transfer
   that carried one completes rejected (two did when a report was
   negative). *)
let test_pinned_gap_89609 () =
  let r =
    pinned_gap ~trace:true ~seed:89609 ~clients:3 ~ops:3 ~regs:1 ~think_us:25_000
      ~group:[ 0; 1 ] ~at_us:131_135 ~heal_us:551_369 ()
  in
  let rejected =
    List.length
      (List.filter
         (fun (e : Event.t) ->
           match e.kind with Event.Complete { status = Rejected; _ } -> true | _ -> false)
         (Recorder.events (Network.recorder r.net)))
  in
  Alcotest.(check int) "no rejected completion" 0 rejected

(* Member 2 lacked 8 stamps of member 0, holding 7 of them. *)
let test_pinned_gap_5715 () =
  ignore
    (pinned_gap ~seed:5715 ~clients:2 ~ops:8 ~regs:1 ~think_us:0 ~group:[ 0; 1 ] ~at_us:491_888
       ~heal_us:818_941 ())

(* Member 1 lacked 4 stamps of member 0, holding 2: its forwarder had
   nothing more to send it, so a gap poll reports the gap. *)
let test_pinned_gap_54677 () =
  ignore
    (pinned_gap ~seed:54677 ~clients:3 ~ops:6 ~regs:2 ~think_us:25_000 ~group:[ 0 ]
       ~at_us:523_332 ~heal_us:843_902 ())

(* ---- delivery digest ---------------------------------------------------- *)

(* What a member does, as an MD5 over every member's delivered sets,
   broadcast sns and send backlog, then every scd.* counter. A change to
   how a member stores, scans or sends must leave it unchanged: the
   digests were recorded before the member's hot path was reworked to
   allocate only what it keeps. *)
let delivery_digest (r : Harness.result) =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i m ->
      Printf.bprintf b "member %d:" i;
      List.iter
        (fun set ->
          Buffer.add_string b " {";
          List.iter (fun (sd, sn) -> Printf.bprintf b " %d.%d" sd sn) set;
          Buffer.add_string b " }")
        (Scd.deliveries m);
      Buffer.add_string b "\n sns:";
      List.iter (Printf.bprintf b " %d") (Scd.broadcast_sns m);
      Printf.bprintf b "\n backlog %d\n" (Scd.retry_depth m))
    r.members;
  let metrics = Recorder.metrics (Network.recorder r.net) in
  List.iter
    (fun name ->
      if String.starts_with ~prefix:"scd." name then
        Printf.bprintf b "%s=%d\n" name (Metrics.counter metrics name))
    (List.sort compare (Metrics.counter_names metrics));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_delivery_digest () =
  let healthy = Harness.run ~n:8 ~clients:4 ~ops:10 ~regs:4 ~seed:88 () in
  Alcotest.(check int) "fault-free: all clients finished" healthy.clients_total
    healthy.clients_done;
  let plan =
    [
      { Fault_plan.at_us = 150_000;
        action = Fault_plan.Loss_burst { rate = 0.2; duration_us = 400_000 } };
      { Fault_plan.at_us = 300_000; action = Fault_plan.Partition ([ 1 ], [ 0; 2; 3; 4; 5; 6; 7 ]) };
      { Fault_plan.at_us = 1_400_000; action = Fault_plan.Heal };
    ]
  in
  let lossy = Harness.run ~n:5 ~clients:3 ~ops:8 ~regs:2 ~think_us:0 ~seed:92 ~plan () in
  let metrics = Recorder.metrics (Network.recorder lossy.net) in
  Alcotest.(check bool) "lossy: some FORWARDs were retried" true
    (Metrics.counter metrics "scd.retry_frames" > 0);
  Alcotest.(check string) "fault-free n=8" "037f9d540a58eb8a414500cc564e5088" (delivery_digest healthy);
  Alcotest.(check string) "loss burst and partition, n=5"
    "047d5d7b1476e4e71178955d71c0cdc6" (delivery_digest lossy)

(* ---- allocation ----------------------------------------------------------- *)

(* The member's hot-path steps, run from the task of a process on a
   one-node network against a member that is not attached: [f] gets the
   task's env, and its result is read once the network is quiescent. *)
let in_task f =
  let net, kernels = make_net ~seed:90 1 in
  let result = ref None in
  ignore
    (Sodal.attach (List.hd kernels)
       { Sodal.default_spec with task = (fun env -> result := Some (f env)) });
  run net;
  match !result with Some r -> r | None -> Alcotest.fail "the task did not finish"

let sync_frame ~sd ~sn ~f ~snf =
  Scd_wire.encode { Scd_wire.sd; sn; f; snf; payload = Scd_wire.Sync }

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Member 0 of five has seen message 1.0 from forwarder 1; forwarder 2
   then sends it 1,000 times with stamps 0, 1, 2, ... (each in order,
   each for a buffered message). Reading them in place, finding the
   quad and lowering a clock entry allocate nothing. *)
let test_in_order_forward_allocates_nothing () =
  let m = Scd.member ~cluster:"a" ~index:0 ~mids:[ 0; 1; 2; 3; 4 ] ~regs:1 in
  let batch =
    Bytes.concat Bytes.empty
      (List.init 1_000 (fun snf -> sync_frame ~sd:1 ~sn:0 ~f:2 ~snf))
  in
  let w =
    in_task (fun env ->
        Scd.process_batch env m (sync_frame ~sd:1 ~sn:0 ~f:1 ~snf:0);
        words (fun () -> Scd.process_batch env m batch))
  in
  Alcotest.(check int) "every stamp of forwarder 2 taken" 1_000 (Scd.next_stamp m 2);
  Alcotest.(check bool)
    (Printf.sprintf "1,000 in-order FORWARDs allocate nothing (%.0f words)" w)
    true (w < 16.0)

(* Member 0 of five buffers message 3.0 (heard from forwarder 3 and
   itself) and 1.0 (heard from forwarders 1 and 2 and itself: a
   candidate), then four more messages from forwarder 4. Message 3.0 is
   not provably after 1.0, so nothing can be delivered: 1,000 scans
   find that without allocating. *)
let test_idle_scan_allocates_nothing () =
  let m = Scd.member ~cluster:"a" ~index:0 ~mids:[ 0; 1; 2; 3; 4 ] ~regs:1 in
  let w =
    in_task (fun env ->
        List.iter
          (fun frame -> Scd.process_batch env m frame)
          ([ sync_frame ~sd:3 ~sn:0 ~f:3 ~snf:0;
             sync_frame ~sd:1 ~sn:0 ~f:1 ~snf:0;
             sync_frame ~sd:1 ~sn:0 ~f:2 ~snf:0 ]
          @ List.init 4 (fun sn -> sync_frame ~sd:4 ~sn ~f:4 ~snf:sn));
        Scd.try_deliver env m;
        words (fun () ->
            for _ = 1 to 1_000 do
              Scd.try_deliver env m
            done))
  in
  Alcotest.(check int) "nothing delivered" 0 (List.length (Scd.deliveries m));
  Alcotest.(check bool)
    (Printf.sprintf "1,000 scans that deliver nothing allocate nothing (%.0f words)" w)
    true (w < 16.0)

(* An echo appends its frame to one out-log that every peer channel
   reads, so what it allocates beyond the frame is the log's amortised
   growth, the same for 3 peers as for 255. *)
let test_echo_allocates_its_frame () =
  let extra n =
    let m = Scd.member ~cluster:"a" ~index:0 ~mids:(List.init n Fun.id) ~regs:1 in
    let frames () =
      for sn = 0 to 999 do
        ignore (Sys.opaque_identity (sync_frame ~sd:0 ~sn ~f:0 ~snf:sn))
      done
    in
    let echoes () =
      for sn = 0 to 999 do
        Scd.echo m (sync_frame ~sd:0 ~sn ~f:0 ~snf:sn)
      done
    in
    let w = words echoes -. words frames in
    Alcotest.(check int) (Printf.sprintf "n=%d: 1,000 frames per peer queued" n)
      (1_000 * (n - 1)) (Scd.retry_depth m);
    w
  in
  let small = extra 4 and large = extra 256 in
  Alcotest.(check bool)
    (Printf.sprintf "beyond its frame, an echo allocates at most 5 words (%.1f)" (small /. 1000.))
    true (small <= 5_000.);
  Alcotest.(check (float 0.5)) "the same at n=256 as at n=4" small large

(* ---- properties under random fault plans -------------------------------- *)

(* Four adversary modes. [Crashes] (minority, no reboot) and [Cut]
   provably keep a majority of members reachable from every client, so
   every operation must complete; [Dup] loses nothing, so the same
   goes; [Burst] degrades the medium, where crash verdicts (and hence
   Failed ops) are legitimate and only safety is asserted. Convergence
   is only checked where nothing is permanently lost or down ([Cut],
   [Dup]). *)
type adversary =
  | Crashes of (int * int) list  (* victim, at *)
  | Cut of int list * int * int  (* minority group, at, heal gap *)
  | Burst of int * int * int  (* at, rate pct, duration *)
  | Dup of int * int  (* at, frames *)

type scenario = {
  n : int;
  seed : int;
  clients : int;
  ops : int;
  regs : int;
  think_us : int;  (* 0 = hot contention: ops overlap constantly *)
  adversary : adversary;
}

let gen_scenario ~n st =
  let open QCheck.Gen in
  let f = (n - 1) / 2 in
  let seed = int_bound 99_999 st in
  let clients = int_range 1 3 st in
  let ops = int_range 3 8 st in
  let regs = int_range 1 3 st in
  let think_us = oneofl [ 0; 25_000; 250_000 ] st in
  let adversary =
    match int_bound 3 st with
    | 0 ->
      (* up to f distinct victims, crashed for good *)
      let victims = List.init f (fun i -> i) in
      let picked = List.filter (fun _ -> bool st) victims in
      let picked = if picked = [] then [ 0 ] else picked in
      Crashes (List.map (fun v -> (v, int_range 100_000 2_000_000 st)) picked)
    | 1 ->
      let size = int_range 1 f st in
      let group = List.init size Fun.id in
      Cut (group, int_range 100_000 1_500_000 st, int_range 100_000 1_000_000 st)
    | 2 -> Burst (int_range 0 1_000_000 st, int_range 10 35 st, int_range 50_000 400_000 st)
    | _ -> Dup (int_range 0 1_000_000 st, int_range 5 60 st)
  in
  { n; seed; clients; ops; regs; think_us; adversary }

let plan_of_scenario s =
  match s.adversary with
  | Crashes victims ->
    List.map (fun (v, at) -> { Fault_plan.at_us = at; action = Fault_plan.Crash v }) victims
    |> List.sort (fun a b -> compare a.Fault_plan.at_us b.Fault_plan.at_us)
  | Cut (group, at, heal_gap) ->
    (* the minority group against everyone else (members + clients) *)
    let others =
      List.filter (fun m -> not (List.mem m group)) (List.init (s.n + 3) Fun.id)
    in
    [
      { Fault_plan.at_us = at; action = Fault_plan.Partition (group, others) };
      { Fault_plan.at_us = at + heal_gap; action = Fault_plan.Heal };
    ]
  | Burst (at, pct, duration_us) ->
    [
      { Fault_plan.at_us = at;
        action = Fault_plan.Loss_burst { rate = float_of_int pct /. 100.0; duration_us } };
    ]
  | Dup (at, count) ->
    [ { Fault_plan.at_us = at; action = Fault_plan.Duplicate_next count } ]

let liveness_guaranteed s =
  match s.adversary with Crashes _ | Cut _ | Dup _ -> true | Burst _ -> false

(* Member [i] is up at the end of the run. *)
let survives s i =
  match s.adversary with
  | Crashes victims -> not (List.mem_assoc i victims)
  | Cut _ | Burst _ | Dup _ -> true

let convergence_expected s =
  match s.adversary with Cut _ | Dup _ -> true | Crashes _ | Burst _ -> false

let scenario_print s =
  Printf.sprintf
    "n=%d seed=%d clients=%d ops=%d regs=%d think=%dus\n-- fault plan --\n%s-- replay --\n\
     save the plan above to plan.txt, then:\n\
     \  dune exec bin/sodal_run.exe -- --scd %d --scd-clients %d --scd-ops %d \\\n\
     \    --scd-regs %d --scd-think-us %d --seed %d --fault-plan plan.txt\n"
    s.n (seed_base + s.seed + 1) s.clients s.ops s.regs s.think_us
    (Fault_plan.to_string (plan_of_scenario s))
    s.n s.clients s.ops s.regs s.think_us (seed_base + s.seed + 1)

(* Transactions whose two ends disagreed, from the run's trace, keyed by
   (requester, tid). Either the server's ACCEPT was acked but the
   requester completed CRASHED (the server popped its reply, the
   requester dropped it), or the requester completed accepted (or
   rejected) while the
   server's accept failed: its ACCEPT was never acked, or it gave up
   waiting for the put data (the requester popped its batch, the server
   never took it). *)
let disagreements (r : Harness.result) =
  let acked = Hashtbl.create 64 and gave_up = Hashtbl.create 8 in
  let completions = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Acked { tid; peer; pkt = Event.P_accept } -> Hashtbl.replace acked (peer, tid) ()
      | Event.Mark { tid; peer; mark = Event.Data_wait_expired; _ } ->
        Hashtbl.replace gave_up (peer, tid) ()
      | Event.Complete { tid; status } -> completions := ((e.mid, tid), status) :: !completions
      | _ -> ())
    (Recorder.events (Network.recorder r.net));
  List.length
    (List.filter
       (fun (key, status) ->
         match status with
         | Event.Crashed -> Hashtbl.mem acked key
         | Event.Accepted | Event.Rejected ->
           Hashtbl.mem gave_up key || not (Hashtbl.mem acked key)
         | Event.Unadvertised | Event.Discovered -> false)
       !completions)

(* Transactions a server handed to its kernel more than once, from the
   run's trace: (server, requester, tid) keys with two [Deliver]s. No
   fault plan here reboots a node, so each server is one incarnation and
   every key must be delivered at most once. *)
let double_takes (r : Harness.result) =
  let seen = Hashtbl.create 256 and twice = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Deliver { tid; src; _ } ->
        let key = (e.mid, src, tid) in
        if Hashtbl.mem seen key then incr twice else Hashtbl.replace seen key ()
      | _ -> ())
    (Recorder.events (Network.recorder r.net));
  !twice

(* Pinned scd.prop case: members 0 and 1 are cut off from the rest and
   the cut heals. A member's connection record for a peer expired while
   a transaction from that peer was still open, and a late retransmission
   of its REQUEST then arrived as new: the server's kernel took it a
   second time. The copy is now acked and counted instead. *)
let test_pinned_second_take_25321 () =
  let plan =
    [
      { Fault_plan.at_us = 144_097;
        action = Fault_plan.Partition ([ 0; 1 ], [ 2; 3; 4; 5; 6; 7 ]) };
      { Fault_plan.at_us = 665_669; action = Fault_plan.Heal };
    ]
  in
  let r =
    Harness.run ~n:5 ~clients:3 ~ops:8 ~regs:2 ~think_us:25_000 ~seed:25321 ~plan ~trace:true ()
  in
  assert_safe r;
  Alcotest.(check int) "no REQUEST delivered to a kernel twice" 0 (double_takes r);
  let refused =
    List.fold_left
      (fun acc mid ->
        acc + Metrics.counter (Kernel.stats (Network.node r.net ~mid)) "req.retake_refused")
      0 (List.init 8 Fun.id)
  in
  Alcotest.(check bool) "the copy was refused" true (refused > 0)

let prop_scd ~n =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "scd: set-constrained delivery and object safety (n=%d)" n)
    ~count:check_count
    (QCheck.make ~print:scenario_print (gen_scenario ~n))
    (fun s ->
      let r =
        Harness.run ~n ~clients:s.clients ~ops:s.ops ~regs:s.regs ~think_us:s.think_us
          ~seed:(seed_base + s.seed + 1) ~plan:(plan_of_scenario s) ~trace:true ()
      in
      if r.clients_done <> r.clients_total then
        QCheck.Test.fail_reportf "hang: %d/%d clients finished" r.clients_done
          r.clients_total;
      (match double_takes r with
       | 0 -> ()
       | k -> QCheck.Test.fail_reportf "%d REQUEST(s) delivered to a kernel twice" k);
      if liveness_guaranteed s then
        List.iter
          (fun (o : Harness.op) ->
            if o.outcome = Harness.Failed then
              QCheck.Test.fail_reportf
                "op failed with a majority reachable:@.%a" Harness.pp_history r.history)
          r.history;
      (match Harness.check_delivery r with
       | Ok () -> ()
       | Error msg ->
         QCheck.Test.fail_reportf "%s:@.%a" msg Harness.pp_history r.history);
      (match Harness.check_objects r with
       | Ok () -> ()
       | Error msg ->
         QCheck.Test.fail_reportf "%s:@.%a" msg Harness.pp_history r.history);
      if convergence_expected s then begin
        (match Harness.check_convergence r with
         | Ok () -> ()
         | Error msg ->
           QCheck.Test.fail_reportf "%s:@.%a" msg Harness.pp_history r.history);
        (* A batch one end of a transfer passed while the other never
           took it leaves a gap; a later FORWARD from its forwarder
           reveals it, one at the end of its stream does not. Runs whose
           transport let the two ends disagree are exempt from the
           missing-stamp count until it no longer does. *)
        let missing = Harness.stamps_missing r in
        if missing <> 0 && disagreements r = 0 then
          QCheck.Test.fail_reportf "%d stamp(s) missing at the end" missing
      end;
      (* A gap a receiver saw is reported until its forwarder fills it. *)
      (match open_gaps ~live:(survives s) r with
       | 0 -> ()
       | k -> QCheck.Test.fail_reportf "%d gap mark(s) still set at the end" k);
      true)

let suites =
  [
    ( "scd",
      [
        Alcotest.test_case "wire: round-trips every payload" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire: rejects garbage" `Quick test_wire_rejects_garbage;
        Helpers.qcheck prop_wire_batch_roundtrip;
        Alcotest.test_case "objects on a healthy cluster" `Quick test_objects_basic;
        Alcotest.test_case "quadratic message cost" `Quick test_quadratic_message_cost;
        Alcotest.test_case "delivery properties on a healthy run" `Quick
          test_deliveries_well_formed;
        Alcotest.test_case "write timestamps increase" `Quick test_write_timestamps;
        Alcotest.test_case "duplicated DISCOVER answered once" `Quick
          test_discover_duplication_deduped;
        Alcotest.test_case "survives a minority crash" `Quick test_survives_minority_crash;
        Alcotest.test_case "partition heals and converges" `Quick
          test_partition_heals_and_converges;
        Alcotest.test_case "backlog reaches a healed member in batches" `Quick
          test_backlog_batched_after_heal;
        Alcotest.test_case "a member down for good keeps its backlog" `Quick
          test_down_member_keeps_backlog;
        Alcotest.test_case "frame duplication is idempotent" `Quick
          test_duplication_is_idempotent;
        Alcotest.test_case "loss burst keeps safety" `Quick test_loss_burst_safety;
        Alcotest.test_case "pump: one EXCHANGE drains both directions in order" `Quick
          test_exchange_drains_both_directions;
        Alcotest.test_case "pump: a cut-off peer does not stall the other channels" `Quick
          test_partition_does_not_stall_other_channels;
        Alcotest.test_case "pump: launches follow completions" `Quick
          test_launches_follow_completions;
        Alcotest.test_case "pump: a retrying channel reuses one reply buffer" `Quick
          test_retry_reuses_reply_buffer;
        Alcotest.test_case "pinned: member 2 down 40 s, then rebooted" `Quick
          test_pinned_outage_40s;
        Alcotest.test_case "pinned: partition {0} then heal, seed 68403" `Quick
          test_pinned_partition_heal_68403;
        Alcotest.test_case "pinned: partition {0} then heal, seed 82049" `Quick
          test_pinned_partition_heal_82049;
        Alcotest.test_case "pinned: loss burst, seed 64369" `Quick test_pinned_burst_64369;
        Alcotest.test_case "pinned: loss burst, seed 69055" `Quick test_pinned_burst_69055;
        Alcotest.test_case "pinned: a late REQUEST copy, seed 25321" `Quick
          test_pinned_second_take_25321;
        Alcotest.test_case "delivery digest" `Quick test_delivery_digest;
        Alcotest.test_case "pump: a gap is dropped, reported and resent from the cursor" `Quick
          test_gap_goes_back_n;
        Alcotest.test_case "pump: a rejected transfer is sent again" `Quick
          test_rejected_transfer_is_retried;
        Alcotest.test_case "pinned: a stamp gap after a cut, seed 89609" `Quick
          test_pinned_gap_89609;
        Alcotest.test_case "pinned: a stamp gap after a cut, seed 5715" `Quick
          test_pinned_gap_5715;
        Alcotest.test_case "pinned: a stamp gap closed by a poll, seed 54677" `Quick
          test_pinned_gap_54677;
      ] );
    ( "scd.alloc",
      [
        Alcotest.test_case "an in-order FORWARD for a buffered message allocates nothing" `Quick
          test_in_order_forward_allocates_nothing;
        Alcotest.test_case "a scan that delivers nothing allocates nothing" `Quick
          test_idle_scan_allocates_nothing;
        Alcotest.test_case "echo allocates only its frame, whatever n is" `Quick
          test_echo_allocates_its_frame;
      ] );
    ( "scd.prop",
      [
        Helpers.qcheck (prop_scd ~n:3);
        Helpers.qcheck (prop_scd ~n:5);
      ] );
  ]
