(* The quorum-replicated store (lib/store): unit tests for the tag and
   the protocol on a healthy cluster, the switchboard rebind path across
   replica reboots, and the linearizability property -- qcheck-generated
   fault plans crash, partition and degrade up to f < n/2 replicas while
   concurrent clients run recorded workloads, and every recorded history
   must pass the Wing-Gong checker (test/lin.ml).

   A failing case prints its (seed, workload, fault plan) triple; the
   plan is in the fault-plan file format, so saving it to plan.txt and
   running

     dune exec bin/sodal_run.exe -- --store 3 --seed SEED --fault-plan plan.txt

   replays the exact schedule bit-for-bit (same harness underneath).
   Nightly soak runs scale the case count with SODA_STORE_CHECK_COUNT
   and shift the seed space with SODA_STORE_SEED. *)

open Helpers
module Fault_plan = Soda_fault.Fault_plan
module Nameserver = Soda_facilities.Nameserver
module Tag = Soda_store.Tag
module Store = Soda_store.Store
module Harness = Soda_store.Harness
module Stats = Soda_sim.Stats
module Metrics = Soda_obs.Metrics
module Recorder = Soda_obs.Recorder

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let check_count = env_int "SODA_STORE_CHECK_COUNT" 250
let seed_base = env_int "SODA_STORE_SEED" 0

(* ---- tag --------------------------------------------------------------- *)

let test_tag_order_and_wire () =
  Alcotest.(check bool) "zero is minimal" true (Tag.compare Tag.zero { seq = 0; wid = 1 } < 0);
  Alcotest.(check bool) "seq dominates" true
    (Tag.compare { seq = 2; wid = 0 } { seq = 1; wid = 99 } > 0);
  Alcotest.(check bool) "wid breaks ties" true
    (Tag.compare { seq = 3; wid = 5 } { seq = 3; wid = 4 } > 0);
  List.iter
    (fun t ->
      match Tag.decode (Tag.encode t) ~at:0 with
      | Some t' -> Alcotest.(check bool) (Tag.to_string t) true (Tag.compare t t' = 0)
      | None -> Alcotest.fail "decode failed")
    [ Tag.zero; { seq = 1; wid = 7 }; { seq = 0xFFFF_FFFF; wid = 0xFFFF } ];
  Alcotest.(check bool) "short buffer" true (Tag.decode (Bytes.create 7) ~at:0 = None)

(* ---- protocol on a healthy cluster ------------------------------------- *)

(* n replicas on mids 0..n-1, [clients] scripted clients on mids n and
   up, each starting 1 ms after the one before. Returns the replica
   kernels and tables. *)
let with_cluster ?(n = 3) ?(clients = 1) ~seed script =
  let cost = { Cost.default with maxrequests = n + 2 } in
  let net, kernels = make_net ~seed ~cost (n + clients) in
  let replicas = Array.init n (fun index -> Store.replica ~cluster:"t" ~index) in
  List.iteri
    (fun mid kernel ->
      if mid < n then ignore (Sodal.attach kernel (Store.replica_spec replicas.(mid)))
      else
        ignore
          (Sodal.attach kernel
             {
               Sodal.default_spec with
               task =
                 (fun env ->
                   Sodal.compute env (20_000 + ((mid - n) * 1_000));
                   let h = Store.handle env ~cluster:"t" ~mids:(List.init n Fun.id) in
                   script env h);
             }))
    kernels;
  run net;
  (List.filteri (fun mid _ -> mid < n) kernels, replicas)

let test_read_write_basic () =
  let observed = ref [] in
  ignore
    (with_cluster ~seed:31 (fun env h ->
         observed := [ Store.read env h ~key:7 ];
         Alcotest.(check bool) "write ok" true (Store.write env h ~key:7 (Bytes.of_string "v1") = Ok ());
         observed := Store.read env h ~key:7 :: !observed;
         Alcotest.(check bool) "overwrite ok" true
           (Store.write env h ~key:7 (Bytes.of_string "v2") = Ok ());
         observed := Store.read env h ~key:7 :: !observed));
  match !observed with
  | [ r3; r2; r1 ] ->
    Alcotest.(check bool) "unwritten key reads None" true (r1 = Ok None);
    Alcotest.(check bool) "reads back v1" true (r2 = Ok (Some (Bytes.of_string "v1")));
    Alcotest.(check bool) "reads back v2" true (r3 = Ok (Some (Bytes.of_string "v2")))
  | _ -> Alcotest.fail "client script did not run"

let test_write_reaches_majority () =
  let _, replicas =
    with_cluster ~seed:32 (fun env h ->
        Alcotest.(check bool) "write ok" true
          (Store.write env h ~key:1 (Bytes.of_string "x") = Ok ()))
  in
  let holders =
    Array.to_list replicas
    |> List.filter (fun r -> Store.peek_replica r ~key:1 <> None)
    |> List.length
  in
  Alcotest.(check bool) "value on a majority" true (holders >= 2);
  Array.iter
    (fun r ->
      match Store.peek_replica r ~key:1 with
      | Some (tag, v) ->
        Alcotest.(check string) "stored value" "x" (Bytes.to_string v);
        Alcotest.(check bool) "tag seq 1" true (tag.Tag.seq = 1)
      | None -> ())
    replicas

let test_cas () =
  ignore
    (with_cluster ~seed:33 (fun env h ->
         Alcotest.(check bool) "cas on empty with wrong expect fails" true
           (Store.cas env h ~key:4 ~expect:(Some (Bytes.of_string "no")) (Bytes.of_string "a")
            = Ok false);
         Alcotest.(check bool) "cas on empty with None succeeds" true
           (Store.cas env h ~key:4 ~expect:None (Bytes.of_string "a") = Ok true);
         Alcotest.(check bool) "cas with matching expect succeeds" true
           (Store.cas env h ~key:4 ~expect:(Some (Bytes.of_string "a")) (Bytes.of_string "b")
            = Ok true);
         Alcotest.(check bool) "stale expect fails" true
           (Store.cas env h ~key:4 ~expect:(Some (Bytes.of_string "a")) (Bytes.of_string "c")
            = Ok false);
         Alcotest.(check bool) "value is b" true
           (Store.read env h ~key:4 = Ok (Some (Bytes.of_string "b")))))

(* The asymmetric state a partially-propagated write leaves behind: one
   replica holds a newer tag than the rest. Once some read returns the
   newer value, every later read must too -- which forces the reader's
   write-back phase whenever the query round alone has not proved the
   max tag is on a majority (the classic ABD new-old inversion). The
   seed sweep varies which replicas' acks arrive first. *)
let test_read_write_back () =
  for seed = 40 to 59 do
    let results = ref [] in
    let cost = { Cost.default with maxrequests = 5 } in
    let net, kernels = make_net ~seed ~cost 4 in
    let replicas = Array.init 3 (fun index -> Store.replica ~cluster:"t" ~index) in
    Store.poke_replica replicas.(seed mod 3) ~key:9 { Tag.seq = 1; wid = 99 }
      (Bytes.of_string "new");
    List.iteri
      (fun mid kernel ->
        if mid < 3 then ignore (Sodal.attach kernel (Store.replica_spec replicas.(mid))))
      kernels;
    ignore
      (Sodal.attach (List.nth kernels 3)
         {
           Sodal.default_spec with
           task =
             (fun env ->
               Sodal.compute env 20_000;
               let h = Store.handle env ~cluster:"t" ~mids:[ 0; 1; 2 ] in
               for _ = 1 to 4 do
                 results := Store.read env h ~key:9 :: !results
               done);
         });
    run net;
    let results = List.rev !results in
    Alcotest.(check int) "four reads completed" 4 (List.length results);
    (* the partial write is concurrent: a read may return None before any
       read observes it, but once observed it must stay observed *)
    let seen = ref false in
    List.iter
      (fun r ->
        match r with
        | Ok (Some v) when Bytes.to_string v = "new" -> seen := true
        | Ok None ->
          if !seen then
            Alcotest.failf "new-old inversion at seed %d: read regressed to None" seed
        | Ok (Some v) -> Alcotest.failf "invented value %S at seed %d" (Bytes.to_string v) seed
        | Error Store.No_quorum -> Alcotest.failf "no quorum on a healthy cluster (seed %d)" seed)
      results
  done

(* One replica down: every operation must still complete OK (majority
   reachable) after skipping the dead replica on its crash verdict. *)
let test_survives_minority_crash () =
  let plan =
    [ { Fault_plan.at_us = 0; action = Fault_plan.Crash 0 } ]
  in
  let r =
    Harness.run ~n:3 ~clients:2 ~ops:6 ~keys:2 ~seed:(seed_base + 34) ~plan ()
  in
  Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
  List.iter
    (fun (op : Harness.op) ->
      if op.outcome = `No_quorum then
        Alcotest.failf "op failed with a majority up:\n%s"
          (Format.asprintf "%a" Harness.pp_history r.history))
    r.history;
  match Lin.check_history r.history with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s\n%a" msg (fun ppf -> Harness.pp_history ppf) r.history

(* The bench STORE "one replica down" shape, with the dead replica at
   each index in turn. Rounds skip it while this handle's request to it
   retransmits towards its crash verdict, so no op waits on the verdict:
   every op completes within a healthy round trip or two, not the
   ~430 ms read / ~850 ms write p50 of rounds that waited on the dead
   replica. A query asks only a majority, first replicas 0 and 1: with
   either of them dead the round hedges to replica 2 once the live one
   has answered, instead of waiting about 480 ms for the verdict. *)
let test_replica_down_stays_fast () =
  List.iter
    (fun dead ->
      let plan = [ { Fault_plan.at_us = 0; action = Fault_plan.Crash dead } ] in
      let r =
        Harness.run ~n:3 ~clients:2 ~ops:30 ~keys:4 ~seed:77 ~think_us:30_000 ~plan ()
      in
      Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
      Alcotest.(check int) "every op recorded" 60 (List.length r.history);
      List.iter
        (fun (op : Harness.op) ->
          if op.outcome = `No_quorum then
            Alcotest.failf "replica %d down: op failed with a majority up:\n%s" dead
              (Format.asprintf "%a" Harness.pp_history r.history))
        r.history;
      (match Lin.check_history r.history with
       | Ok () -> ()
       | Error msg ->
         Alcotest.failf "replica %d down: %s\n%a" dead msg
           (fun ppf -> Harness.pp_history ppf)
           r.history);
      let slowest =
        List.fold_left
          (fun acc (op : Harness.op) -> max acc (op.end_us - op.start_us))
          0 r.history
      in
      if slowest >= 100_000 then
        Alcotest.failf "replica %d down: slowest op took %d us (bound 100 ms)" dead slowest;
      let m = Recorder.metrics (Network.recorder r.net) in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d down: rounds skipped it" dead)
        true
        (Metrics.counter m "store.skipped" > 0);
      if dead < 2 then
        Alcotest.(check bool)
          (Printf.sprintf "replica %d down: a query round hedged" dead)
          true
          (Metrics.counter m "store.hedged" > 0))
    [ 0; 1; 2 ]

(* A read of an unwritten key is one query round, and a query asks only
   a majority: 3 REQUESTs reach the 5 replicas, not 5. *)
let test_query_asks_majority () =
  let result = ref None in
  let kernels, _ =
    with_cluster ~n:5 ~seed:37 (fun env h -> result := Some (Store.read env h ~key:3))
  in
  Alcotest.(check bool) "read of an unwritten key" true (!result = Some (Ok None));
  let delivered =
    List.fold_left
      (fun acc kernel -> acc + Stats.counter (Kernel.stats kernel) "req.delivered")
      0 kernels
  in
  Alcotest.(check int) "query REQUESTs delivered" 3 delivered

(* A value longer than [max_value] would overflow every later query
   reply's buffer, so [write] and [cas] refuse it before any round and
   the key stays readable. *)
let test_oversized_value_refused () =
  Alcotest.(check int) "max_value" 512 Store.max_value;
  let longest = Bytes.make Store.max_value 'v' in
  let observed = ref [] in
  ignore
    (with_cluster ~seed:38 (fun env h ->
         let refused f =
           match f () with _ -> false | exception Invalid_argument _ -> true
         in
         Alcotest.(check bool) "512-byte write ok" true
           (Store.write env h ~key:5 longest = Ok ());
         observed := [ Store.read env h ~key:5 ];
         Alcotest.(check bool) "513-byte write raises" true
           (refused (fun () ->
                Store.write env h ~key:5 (Bytes.make (Store.max_value + 1) 'w')));
         Alcotest.(check bool) "513-byte cas raises" true
           (refused (fun () ->
                Store.cas env h ~key:5 ~expect:(Some longest)
                  (Bytes.make (Store.max_value + 1) 'c')));
         observed := Store.read env h ~key:5 :: !observed));
  Alcotest.(check int) "both reads ran" 2 (List.length !observed);
  List.iter
    (fun r -> Alcotest.(check bool) "reads the 512-byte value" true (r = Ok (Some longest)))
    !observed

(* Eight clients write to three replicas at once, with no think time.
   Each replica's handler only queues the request and its task ACCEPTs
   the queue in order, so the kernel never has to NACK one as BUSY (with
   the ACCEPT in the handler, this run drew about 1,000 NACKs). Starts
   are 1 ms apart, so every op still overlaps the others: the handler
   costs a context switch per request, and eight REQUESTs landing in the
   same instant would still overflow the one-request pipeline buffer. *)
let test_concurrent_writers_no_busy () =
  let failed = ref 0 and done_count = ref 0 in
  let kernels, _ =
    with_cluster ~clients:8 ~seed:78 (fun env h ->
        for i = 1 to 10 do
          let v = Bytes.of_string (Printf.sprintf "c%d#%d" (Sodal.my_mid env) i) in
          if Store.write env h ~key:(i mod 2) v <> Ok () then incr failed
        done;
        incr done_count)
  in
  Alcotest.(check int) "all writers finished" 8 !done_count;
  Alcotest.(check int) "every write ok" 0 !failed;
  List.iteri
    (fun mid kernel ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d BUSY NACKs" mid)
        0
        (Stats.counter (Kernel.stats kernel) "req.busy_nacked"))
    kernels

(* ---- switchboard registration and rebind ------------------------------- *)

let test_nameserver_rebind () =
  let net, kernels = make_net ~seed:35 2 in
  ignore (Sodal.attach (List.nth kernels 0) (Nameserver.spec ()));
  let results = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sb = Sodal.server ~mid:0 ~pattern:Nameserver.switchboard_pattern in
             let first = Sodal.server ~mid:1 ~pattern:(Pattern.well_known 0o11) in
             let second = Sodal.server ~mid:1 ~pattern:(Pattern.well_known 0o22) in
             let r1 = Nameserver.register env sb ~name:"svc/a" first in
             (* a second register of the taken name still loses... *)
             let r2 = Nameserver.register env sb ~name:"svc/a" second in
             (* ...but rebind reclaims it unconditionally *)
             let r3 = Nameserver.rebind env sb ~name:"svc/a" second in
             let r4 = Nameserver.lookup env sb ~name:"svc/a" in
             (* rebind also creates missing bindings *)
             let r5 = Nameserver.rebind env sb ~name:"svc/b" first in
             let r6 = Nameserver.lookup env sb ~name:"svc/b" in
             results := [ r1 = Ok (); r2 = Error Nameserver.Already_registered;
                          r3 = Ok (); r4 = Ok second; r5 = Ok (); r6 = Ok first ]);
       });
  run net;
  Alcotest.(check (list bool)) "register/rebind/lookup sequence"
    [ true; true; true; true; true; true ] !results

(* A replica crashes and reboots mid-workload in switchboard mode: the
   fresh incarnation's register finds its dead predecessor's binding and
   must rebind; clients re-resolve on UNADVERTISED and keep going. The
   replica table is preserved across the reboot (stable storage), so the
   history stays linearizable. *)
let test_store_rebind_across_reboot () =
  let plan =
    [
      { Fault_plan.at_us = 600_000; action = Fault_plan.Crash 1 };
      { Fault_plan.at_us = 1_400_000; action = Fault_plan.Reboot 1 };
    ]
  in
  let r =
    Harness.run ~n:3 ~clients:2 ~ops:8 ~keys:2 ~seed:(seed_base + 36)
      ~use_nameserver:true ~plan ()
  in
  Alcotest.(check int) "all clients finished" r.clients_total r.clients_done;
  Alcotest.(check int) "replica 1 ran twice" 2 (Store.incarnations r.replicas.(1));
  List.iter
    (fun (op : Harness.op) ->
      if op.outcome = `No_quorum then
        Alcotest.failf "op failed with a majority up:\n%s"
          (Format.asprintf "%a" Harness.pp_history r.history))
    r.history;
  match Lin.check_history r.history with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s\n%a" msg (fun ppf -> Harness.pp_history ppf) r.history

(* ---- the checker itself ------------------------------------------------ *)

let op kind start_us end_us = { Lin.kind; start_us; end_us; required = true }

let test_checker_accepts_valid () =
  (* sequential write-then-read *)
  Alcotest.(check bool) "sequential" true
    (Lin.check [ op (`Write "a") 0 10; op (`Read (Some "a")) 20 30 ]);
  (* concurrent read may see either side of a write *)
  Alcotest.(check bool) "concurrent read old" true
    (Lin.check [ op (`Write "a") 0 10; op (`Write "b") 20 40; op (`Read (Some "a")) 15 25 ]);
  Alcotest.(check bool) "concurrent read new" true
    (Lin.check [ op (`Write "a") 0 10; op (`Write "b") 20 40; op (`Read (Some "b")) 30 50 ]);
  (* a failed write may linearize (read observes it)... *)
  Alcotest.(check bool) "failed write observed" true
    (Lin.check
       [ { Lin.kind = `Write "a"; start_us = 0; end_us = max_int; required = false };
         op (`Read (Some "a")) 10 20 ]);
  (* ...or not (read does not observe it) *)
  Alcotest.(check bool) "failed write unobserved" true
    (Lin.check
       [ { Lin.kind = `Write "a"; start_us = 0; end_us = max_int; required = false };
         op (`Read None) 10 20 ])

let test_checker_rejects_invalid () =
  (* stale read: the overwrite finished before the read started *)
  Alcotest.(check bool) "stale read" false
    (Lin.check
       [ op (`Write "a") 0 10; op (`Write "b") 20 30; op (`Read (Some "a")) 40 50 ]);
  (* lost update: value read was never written *)
  Alcotest.(check bool) "invented value" false
    (Lin.check [ op (`Write "a") 0 10; op (`Read (Some "zz")) 20 30 ]);
  (* new-old inversion across two sequential reads *)
  Alcotest.(check bool) "new-old inversion" false
    (Lin.check
       [ op (`Write "a") 0 10; op (`Write "b") 5 15;
         op (`Read (Some "b")) 20 30; op (`Read (Some "a")) 40 50 ]);
  (* a failed write must not be read after a later completed write *)
  Alcotest.(check bool) "failed write resurrected" false
    (Lin.check
       [ { Lin.kind = `Write "a"; start_us = 0; end_us = max_int; required = false };
         op (`Write "b") 10 20; op (`Read (Some "b")) 30 40;
         op (`Read (Some "a")) 50 60; op (`Read (Some "b")) 70 80 ])

(* ---- linearizability under random fault plans -------------------------- *)

(* Three adversary modes. [Crashes] and [Cut] provably keep a majority
   of replicas reachable from every client, so every operation must
   complete Ok; [Burst] degrades the medium, where crash verdicts (and
   hence NO QUORUM) are legitimate, and only completion + atomicity are
   asserted. *)
type adversary =
  | Crashes of (int * int * int option) list  (* victim, at, reboot gap *)
  | Cut of int list * int * int  (* minority group, at, heal gap *)
  | Burst of int * int * int  (* at, rate pct, duration *)

type scenario = {
  n : int;
  seed : int;
  clients : int;
  ops : int;
  keys : int;
  think_us : int;  (* 0 = hot contention: ops overlap constantly *)
  adversary : adversary;
}

let gen_scenario ~n st =
  let open QCheck.Gen in
  let f = (n - 1) / 2 in
  let seed = int_bound 99_999 st in
  let clients = int_range 1 3 st in
  let ops = int_range 3 8 st in
  let keys = int_range 1 2 st in
  let think_us = oneofl [ 0; 25_000; 250_000 ] st in
  let adversary =
    match int_bound 2 st with
    | 0 ->
      (* up to f distinct victims, each crashed once (maybe rebooted) *)
      let victims = List.init f (fun i -> i) in
      let picked = List.filter (fun _ -> bool st) victims in
      let picked = if picked = [] then [ 0 ] else picked in
      Crashes
        (List.map
           (fun v ->
             let at = int_range 100_000 2_000_000 st in
             let gap = if bool st then Some (int_range 200_000 900_000 st) else None in
             (v, at, gap))
           picked)
    | 1 ->
      let size = int_range 1 f st in
      let group = List.init size Fun.id in
      Cut (group, int_range 100_000 1_500_000 st, int_range 100_000 1_000_000 st)
    | _ -> Burst (int_range 0 1_000_000 st, int_range 10 35 st, int_range 50_000 400_000 st)
  in
  { n; seed; clients; ops; keys; think_us; adversary }

let plan_of_scenario s =
  match s.adversary with
  | Crashes victims ->
    List.concat_map
      (fun (v, at, gap) ->
        { Fault_plan.at_us = at; action = Fault_plan.Crash v }
        ::
        (match gap with
         | Some g -> [ { Fault_plan.at_us = at + g; action = Fault_plan.Reboot v } ]
         | None -> []))
      victims
    |> List.sort (fun a b -> compare a.Fault_plan.at_us b.Fault_plan.at_us)
  | Cut (group, at, heal_gap) ->
    (* the minority group against everyone else (replicas + clients) *)
    let others =
      List.filter (fun m -> not (List.mem m group)) (List.init (s.n + 1 + 3) Fun.id)
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

let majority_guaranteed s =
  match s.adversary with Crashes _ | Cut _ -> true | Burst _ -> false

let scenario_print s =
  Printf.sprintf
    "n=%d seed=%d clients=%d ops=%d keys=%d think=%dus\n-- fault plan --\n%s-- replay --\n\
     save the plan above to plan.txt, then:\n\
     \  dune exec bin/sodal_run.exe -- --store %d --store-clients %d --store-ops %d \\\n\
     \    --store-keys %d --store-think-us %d --seed %d --fault-plan plan.txt\n"
    s.n (seed_base + s.seed + 1) s.clients s.ops s.keys s.think_us
    (Fault_plan.to_string (plan_of_scenario s))
    s.n s.clients s.ops s.keys s.think_us (seed_base + s.seed + 1)

let prop_linearizable ~n =
  QCheck.Test.make
    ~name:(Printf.sprintf "store: linearizable under random fault plans (n=%d)" n)
    ~count:check_count
    (QCheck.make ~print:scenario_print (gen_scenario ~n))
    (fun s ->
      let r =
        Harness.run ~n ~clients:s.clients ~ops:s.ops ~keys:s.keys
          ~think_us:s.think_us ~seed:(seed_base + s.seed + 1)
          ~plan:(plan_of_scenario s) ()
      in
      if r.clients_done <> r.clients_total then
        QCheck.Test.fail_reportf "hang: %d/%d clients finished" r.clients_done
          r.clients_total;
      if majority_guaranteed s then
        List.iter
          (fun (o : Harness.op) ->
            if o.outcome = `No_quorum then
              QCheck.Test.fail_reportf
                "NO QUORUM with a majority reachable:@.%a" Harness.pp_history r.history)
          r.history;
      match Lin.check_history r.history with
      | Ok () -> true
      | Error msg ->
        QCheck.Test.fail_reportf "%s:@.%a" msg Harness.pp_history r.history)

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "tag: order and wire format" `Quick test_tag_order_and_wire;
        Alcotest.test_case "read/write on a healthy cluster" `Quick test_read_write_basic;
        Alcotest.test_case "write lands on a majority" `Quick test_write_reaches_majority;
        Alcotest.test_case "cas" `Quick test_cas;
        Alcotest.test_case "reader writes back partial writes" `Quick test_read_write_back;
        Alcotest.test_case "survives a minority crash" `Quick test_survives_minority_crash;
        Alcotest.test_case "one replica down stays fast" `Quick test_replica_down_stays_fast;
        Alcotest.test_case "concurrent writers draw no BUSY" `Quick
          test_concurrent_writers_no_busy;
        Alcotest.test_case "a query asks only a majority" `Quick test_query_asks_majority;
        Alcotest.test_case "an oversized value is refused" `Quick
          test_oversized_value_refused;
        Alcotest.test_case "nameserver rebind reclaims a name" `Quick test_nameserver_rebind;
        Alcotest.test_case "replica rebinds across a reboot" `Quick
          test_store_rebind_across_reboot;
      ] );
    ( "store.lin",
      [
        Alcotest.test_case "checker accepts valid histories" `Quick test_checker_accepts_valid;
        Alcotest.test_case "checker rejects violations" `Quick test_checker_rejects_invalid;
        QCheck_alcotest.to_alcotest (prop_linearizable ~n:3);
        QCheck_alcotest.to_alcotest (prop_linearizable ~n:5);
      ] );
  ]
