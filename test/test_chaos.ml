(* Chaos/soak suite: the exactly-once property and the Chapter-4
   facilities under declarative fault plans -- qcheck-generated random
   plans plus hand-crafted adversaries (an ack eaten by a partition, a
   server reboot between deliver and ACCEPT, a requester reboot with the
   reply in flight).

   Every failure is reproducible from the printed (seed, fault plan)
   pair alone: the counterexample prints in the fault-plan file format,
   so saving it to a file and running

     dune exec bin/sodal_run.exe -- --seed SEED --fault-plan plan.txt \
       examples/sodal/pingpong_server.sodal examples/sodal/pingpong_client.sodal

   replays the exact schedule (see docs/TESTING.md). Nightly soak runs
   scale the case count with SODA_CHAOS_COUNT and shift the seed space
   with SODA_CHAOS_SEED. *)

open Helpers
module Bus = Soda_net.Bus
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector
module Rpc = Soda_facilities.Rpc
module Nameserver = Soda_facilities.Nameserver
module Stream = Soda_facilities.Stream
module Multicast = Soda_facilities.Multicast
module Bidding = Soda_facilities.Bidding

let patt = Pattern.well_known 0o555

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

(* Nightly knobs: SODA_CHAOS_COUNT raises the random-plan case count,
   SODA_CHAOS_SEED shifts the whole seed space (see the chaos-nightly
   workflow). *)
let chaos_count = env_int "SODA_CHAOS_COUNT" 30
let chaos_seed = env_int "SODA_CHAOS_SEED" 0

(* ---- the exactly-once harness ------------------------------------------------

   A server on mid 0 logging every delivered arg, a client on mid 1
   issuing [ops] sequential signals, a fault plan injected over the run.
   Deliveries are segmented per server incarnation: the on_reboot hook
   closes the current log and re-attaches the server program, exactly as
   a SODAL deployment would restart its service. *)

type outcome = {
  statuses : (int, Sodal.comp_status) Hashtbl.t;
  incarnations : int list list; (* per-incarnation delivery logs, oldest first *)
}

let run_harness ~seed ~loss ~handler_us ~ops plan =
  let net, kernels = make_net ~seed 2 in
  if loss > 0.0 then Bus.set_loss_rate (Network.bus net) loss;
  let current = ref [] and closed = ref [] in
  let server_spec =
    {
      Sodal.default_spec with
      Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request =
        (fun env info ->
          current := info.Sodal.arg :: !current;
          if handler_us > 0 then Sodal.compute env handler_us;
          ignore (Sodal.accept_current_signal env ~arg:0));
    }
  in
  ignore (Sodal.attach (List.nth kernels 0) server_spec);
  let statuses = Hashtbl.create 16 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to ops do
               let c = Sodal.b_signal env sv ~arg:i in
               Hashtbl.replace statuses i c.Sodal.status;
               (* after a crash verdict, wait out the reboot + quarantine
                  so one dead server cannot swallow the whole batch *)
               if c.Sodal.status = Sodal.Comp_crashed then
                 Sodal.compute env 2_000_000
             done);
       });
  Injector.install net plan ~on_reboot:(fun ~mid kernel ->
      if mid = 0 then begin
        closed := List.rev !current :: !closed;
        current := [];
        ignore (Sodal.attach kernel server_spec)
      end);
  ignore (Network.run ~until:600_000_000 net);
  { statuses; incarnations = List.rev (List.rev !current :: !closed) }

(* The invariants that must survive ANY plan the generator can produce:
   every op completes with some status; within each server incarnation
   the deliveries are duplicate-free and in issue order; nothing is
   invented; a COMPLETED op was delivered. CRASHED is a legitimate
   verdict (bounded retransmissions, §5.2.2) and such an op may have
   been delivered at most once. *)
let exactly_once ~ops outcome =
  let all_completed = Hashtbl.length outcome.statuses = ops in
  let per_incarnation_ok =
    List.for_all
      (fun log ->
        List.length log = List.length (List.sort_uniq compare log)
        && List.sort compare log = log)
      outcome.incarnations
  in
  let deliveries = List.concat outcome.incarnations in
  let no_inventions = List.for_all (fun d -> d >= 1 && d <= ops) deliveries in
  let consistent =
    List.for_all
      (fun i ->
        match Hashtbl.find_opt outcome.statuses i with
        | Some Sodal.Comp_ok -> List.mem i deliveries
        | Some Sodal.Comp_crashed -> true
        | Some (Sodal.Comp_rejected | Sodal.Comp_unadvertised) | None -> false)
      (List.init ops (fun i -> i + 1))
  in
  all_completed && per_incarnation_ok && no_inventions && consistent

(* ---- random plans ------------------------------------------------------------ *)

type scenario = {
  seed : int;
  loss_pct : int;
  handler_us : int; (* server turnaround: widens the crash-mid-txn window *)
  cut : int option; (* partition at, healed [heal_gap] later *)
  heal_gap : int;
  crash : int option; (* server crash at, rebooted [reboot_gap] later *)
  reboot_gap : int;
  dup : (int * int) option; (* duplicate the next [n] frames at t *)
  jitter : (int * int) option; (* min/max per-frame delay, from t=0 *)
  burst : (int * int * int) option; (* loss burst: at, rate %, duration *)
}

(* Only the SERVER node (mid 0) is ever crashed: crashing the client
   kills its blocking fiber mid-call, which is machine death, not a
   protocol adversary (the requester-reboot adversary is hand-crafted
   below). Jitter stays well under the retransmission interval so the
   stop-and-wait exchange cannot reorder. *)
let gen_scenario st =
  let open QCheck.Gen in
  let opt g st = if bool st then Some (g st) else None in
  let seed = int_bound 9999 st in
  let loss_pct = int_bound 12 st in
  let handler_us = oneofl [ 0; 20_000; 100_000 ] st in
  let cut = opt (int_range 1_000 800_000) st in
  let heal_gap = int_range 20_000 300_000 st in
  let crash = opt (int_range 50_000 1_200_000) st in
  let reboot_gap = int_range 10_000 400_000 st in
  let dup = opt (pair (int_range 0 500_000) (int_range 1 3)) st in
  let jitter = opt (pair (int_range 0 1_000) (int_range 1_000 2_000)) st in
  let burst =
    opt (triple (int_range 0 400_000) (int_range 5 40) (int_range 20_000 150_000)) st
  in
  { seed; loss_pct; handler_us; cut; heal_gap; crash; reboot_gap; dup; jitter; burst }

let plan_of_scenario s =
  let steps = ref [] in
  let add at_us action = steps := { Fault_plan.at_us; action } :: !steps in
  (match s.jitter with
   | Some (min_us, max_us) -> add 0 (Fault_plan.Delay_jitter { min_us; max_us })
   | None -> ());
  (match s.cut with
   | Some at ->
     add at (Fault_plan.Partition ([ 0 ], [ 1 ]));
     add (at + s.heal_gap) Fault_plan.Heal
   | None -> ());
  (match s.crash with
   | Some at ->
     add at (Fault_plan.Crash 0);
     add (at + s.reboot_gap) (Fault_plan.Reboot 0)
   | None -> ());
  (match s.dup with
   | Some (at, n) -> add at (Fault_plan.Duplicate_next n)
   | None -> ());
  (match s.burst with
   | Some (at, pct, duration_us) ->
     add at (Fault_plan.Loss_burst { rate = float_of_int pct /. 100.0; duration_us })
   | None -> ());
  List.sort (fun a b -> compare a.Fault_plan.at_us b.Fault_plan.at_us) !steps

let scenario_print s =
  Printf.sprintf
    "net-seed=%d loss=%d%% handler=%dus\n-- fault plan --\n%s-- replay --\n\
     save the plan above to plan.txt, then:\n\
     \  dune exec bin/sodal_run.exe -- --seed %d --fault-plan plan.txt \\\n\
     \    examples/sodal/pingpong_server.sodal examples/sodal/pingpong_client.sodal\n"
    (chaos_seed + s.seed + 1) s.loss_pct s.handler_us
    (Fault_plan.to_string (plan_of_scenario s))
    (chaos_seed + s.seed + 1)

let arb_scenario = QCheck.make ~print:scenario_print gen_scenario

let prop_exactly_once_under_chaos =
  QCheck.Test.make ~name:"chaos: exactly-once under random fault plans"
    ~count:chaos_count arb_scenario
    (fun s ->
      let outcome =
        run_harness ~seed:(chaos_seed + s.seed + 1)
          ~loss:(float_of_int s.loss_pct /. 100.0)
          ~handler_us:s.handler_us ~ops:6 (plan_of_scenario s)
      in
      exactly_once ~ops:6 outcome)

(* A deterministic soak sweep rides in the tier-1 suite: a fixed band of
   seeds through a composite plan exercising every action kind at once.
   Unlike the qcheck property the schedule here never varies, so any
   regression bisects cleanly. *)
let test_soak_composite_plan () =
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Delay_jitter { min_us = 0; max_us = 1_500 } };
      { Fault_plan.at_us = 3_000; action = Fault_plan.Duplicate_next 2 };
      { Fault_plan.at_us = 20_000; action = Fault_plan.Partition ([ 0 ], [ 1 ]) };
      { Fault_plan.at_us = 90_000; action = Fault_plan.Heal };
      { Fault_plan.at_us = 150_000;
        action = Fault_plan.Loss_burst { rate = 0.3; duration_us = 100_000 } };
      { Fault_plan.at_us = 400_000; action = Fault_plan.Crash 0 };
      { Fault_plan.at_us = 700_000; action = Fault_plan.Reboot 0 };
    ]
  in
  for seed = 1 to 10 do
    let outcome = run_harness ~seed ~loss:0.05 ~handler_us:20_000 ~ops:6 plan in
    if not (exactly_once ~ops:6 outcome) then
      Alcotest.failf "soak violation at seed %d; replay with:\n%s" seed
        (Fault_plan.to_string plan)
  done

(* ---- hand-crafted adversaries ------------------------------------------------ *)

(* The ACCEPT is eaten by a partition cut just after the request lands.
   The requester keeps retransmitting into the void; after the heal the
   server-side duplicate suppression must answer the retry by RESENDING
   the ACCEPT, not by re-executing the handler: Comp_ok, delivered
   exactly once. *)
let test_ack_eaten_by_partition () =
  let plan =
    [
      { Fault_plan.at_us = 5_000; action = Fault_plan.Partition ([ 0 ], [ 1 ]) };
      { Fault_plan.at_us = 60_000; action = Fault_plan.Heal };
    ]
  in
  (* handler 10 ms: the request is delivered (~4 ms) before the cut, the
     ACCEPT (~14 ms) is sent into the partition and eaten *)
  let outcome = run_harness ~seed:11 ~loss:0.0 ~handler_us:10_000 ~ops:1 plan in
  Alcotest.(check bool) "completed OK" true
    (Hashtbl.find_opt outcome.statuses 1 = Some Sodal.Comp_ok);
  Alcotest.(check (list (list int))) "delivered exactly once" [ [ 1 ] ]
    outcome.incarnations

(* The server crashes between delivering the request and sending the
   ACCEPT; the requester's probes must return a CRASHED verdict, and the
   rebooted incarnation must serve the follow-up op without ever seeing
   the first one again. *)
let test_reboot_between_deliver_and_accept () =
  let plan =
    [
      { Fault_plan.at_us = 100_000; action = Fault_plan.Crash 0 };
      { Fault_plan.at_us = 1_000_000; action = Fault_plan.Reboot 0 };
    ]
  in
  (* handler 800 ms: the crash at 100 ms lands mid-handler *)
  let outcome = run_harness ~seed:12 ~loss:0.0 ~handler_us:800_000 ~ops:2 plan in
  Alcotest.(check bool) "op 1 CRASHED" true
    (Hashtbl.find_opt outcome.statuses 1 = Some Sodal.Comp_crashed);
  Alcotest.(check bool) "op 2 served by the new incarnation" true
    (Hashtbl.find_opt outcome.statuses 2 = Some Sodal.Comp_ok);
  Alcotest.(check (list (list int))) "no cross-incarnation replay" [ [ 1 ]; [ 2 ] ]
    outcome.incarnations

(* The REQUESTER reboots while the server still holds its request; when
   the held-back data-bearing ACCEPT finally arrives, the fresh
   incarnation's mint classifies the TID stale and answers Err_crashed
   (§5.4): the server observes ACCEPT status CRASHED, and the rebooted
   node's own fresh request is served normally. *)
let test_requester_reboot_stale_reply () =
  let net, kernels = make_net ~seed:13 2 in
  let first_accept = ref None and delivered = ref [] and fresh = ref None in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             delivered := info.Sodal.arg :: !delivered;
             Sodal.compute env 500_000;
             let st, _ =
               Sodal.accept_current_exchange env ~arg:0
                 ~into:(Bytes.create info.Sodal.put_size)
                 ~data:(Bytes.of_string "reply")
             in
             if !first_accept = None then first_accept := Some st);
       });
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             ignore
               (Sodal.b_exchange env
                  (Sodal.server ~mid:0 ~pattern:patt)
                  ~arg:1 Bytes.empty ~into:(Bytes.create 16)));
       });
  let plan =
    [
      { Fault_plan.at_us = 100_000; action = Fault_plan.Crash 1 };
      { Fault_plan.at_us = 200_000; action = Fault_plan.Reboot 1 };
    ]
  in
  Injector.install net plan ~quarantine:false ~on_reboot:(fun ~mid:_ kernel ->
      ignore
        (Sodal.attach kernel
           {
             Sodal.default_spec with
             task =
               (fun env ->
                 (* outlive the stale ACCEPT (~500 ms), then prove the
                    reborn node is a first-class requester *)
                 Sodal.compute env 1_000_000;
                 let c =
                   Sodal.b_exchange env
                     (Sodal.server ~mid:0 ~pattern:patt)
                     ~arg:2 Bytes.empty ~into:(Bytes.create 16)
                 in
                 fresh := Some c.Sodal.status);
           }));
  run ~horizon:600.0 net;
  Alcotest.(check bool) "stale reply answered CRASHED" true
    (!first_accept = Some Types.Accept_crashed);
  Alcotest.(check bool) "fresh request from reborn node served" true
    (!fresh = Some Sodal.Comp_ok);
  Alcotest.(check (list int)) "each op delivered once" [ 1; 2 ] (List.rev !delivered)

(* ---- windowed-transport adversaries ------------------------------------------ *)

(* The pipelined variant of the exactly-once harness: a client with a
   sliding window of [window] keeps up to [window] signals in flight at
   once (cost-model window raised to match), so the fault lands while
   several sequence numbers are unacknowledged. Issue order no longer
   pins delivery order -- a BUSY retry legitimately re-sequences a
   request behind its successors -- so the invariants here are the
   order-free core: every op gets a verdict, nothing is delivered twice
   (within OR across incarnations: a rebooted server must never replay a
   pre-crash op), nothing is invented, and COMPLETED means delivered. *)
let run_windowed_harness ~seed ~window ~loss ~handler_us ~ops ?(tail_ops = 0) plan =
  let cost =
    { Cost.default with Cost.window; maxrequests = window + 1 }
  in
  let net, kernels = make_net ~seed ~cost 2 in
  if loss > 0.0 then Bus.set_loss_rate (Network.bus net) loss;
  let current = ref [] and closed = ref [] in
  let server_spec =
    {
      Sodal.default_spec with
      Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request =
        (fun env info ->
          current := info.Sodal.arg :: !current;
          if handler_us > 0 then Sodal.compute env handler_us;
          ignore (Sodal.accept_current_signal env ~arg:0));
    }
  in
  ignore (Sodal.attach (List.nth kernels 0) server_spec);
  let statuses = Hashtbl.create 16 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let in_flight = ref 0 in
             for i = 1 to ops do
               while !in_flight >= window do
                 Sodal.idle env
               done;
               let tid = Sodal.signal env sv ~arg:i in
               incr in_flight;
               Sodal.on_completion_of env tid (fun c ->
                   decr in_flight;
                   Hashtbl.replace statuses i c.Sodal.status)
             done;
             while !in_flight > 0 do
               Sodal.idle env
             done;
             (* optional sequential tail: outlive reboot + quarantine, then
                prove the fresh incarnation serves the reborn window *)
             for i = ops + 1 to ops + tail_ops do
               if
                 Hashtbl.fold
                   (fun _ st any -> any || st = Sodal.Comp_crashed)
                   statuses false
               then Sodal.compute env 2_000_000;
               let c = Sodal.b_signal env sv ~arg:i in
               Hashtbl.replace statuses i c.Sodal.status
             done);
       });
  Injector.install net plan ~on_reboot:(fun ~mid kernel ->
      if mid = 0 then begin
        closed := List.rev !current :: !closed;
        current := [];
        ignore (Sodal.attach kernel server_spec)
      end);
  ignore (Network.run ~until:600_000_000 net);
  { statuses; incarnations = List.rev (List.rev !current :: !closed) }

let exactly_once_unordered ~ops outcome =
  let all_completed = Hashtbl.length outcome.statuses = ops in
  let deliveries = List.concat outcome.incarnations in
  let no_duplicates =
    List.length deliveries = List.length (List.sort_uniq compare deliveries)
  in
  let no_inventions = List.for_all (fun d -> d >= 1 && d <= ops) deliveries in
  let consistent =
    List.for_all
      (fun i ->
        match Hashtbl.find_opt outcome.statuses i with
        | Some Sodal.Comp_ok -> List.mem i deliveries
        | Some Sodal.Comp_crashed -> true
        | Some (Sodal.Comp_rejected | Sodal.Comp_unadvertised) | None -> false)
      (List.init ops (fun i -> i + 1))
  in
  all_completed && no_duplicates && no_inventions && consistent

(* A 40% loss burst landing while the window is full of unacked signals:
   retransmission under cumulative acks must recover every one of them,
   exactly once, with no crash verdicts (the burst is shorter than the
   retransmission budget). *)
let test_window_loss_burst_mid_flight () =
  let plan =
    [
      { Fault_plan.at_us = 5_000;
        action = Fault_plan.Loss_burst { rate = 0.4; duration_us = 60_000 } };
    ]
  in
  let outcome =
    run_windowed_harness ~seed:61 ~window:4 ~loss:0.0 ~handler_us:5_000 ~ops:8 plan
  in
  Alcotest.(check bool) "exactly once" true (exactly_once_unordered ~ops:8 outcome);
  Alcotest.(check bool) "no crash verdicts under a recoverable burst" true
    (Hashtbl.fold (fun _ st ok -> ok && st = Sodal.Comp_ok) outcome.statuses true)

(* The server crashes with W-1 signals unacknowledged in the window and
   reboots later: every in-flight op gets an honest verdict (OK iff it
   was delivered), the fresh incarnation never sees a pre-crash op again
   (stale-TID classification, §5.4), and a follow-up op issued after the
   quarantine is served normally. *)
let test_window_crash_with_unacked () =
  let plan =
    [
      { Fault_plan.at_us = 60_000; action = Fault_plan.Crash 0 };
      { Fault_plan.at_us = 800_000; action = Fault_plan.Reboot 0 };
    ]
  in
  let outcome =
    run_windowed_harness ~seed:62 ~window:4 ~loss:0.0 ~handler_us:100_000 ~ops:3
      ~tail_ops:1 plan
  in
  Alcotest.(check bool) "exactly once across incarnations" true
    (exactly_once_unordered ~ops:4 outcome);
  Alcotest.(check bool) "some in-flight op got a crash verdict" true
    (Hashtbl.fold (fun _ st any -> any || st = Sodal.Comp_crashed) outcome.statuses false);
  Alcotest.(check bool) "follow-up op served after reboot" true
    (Hashtbl.find_opt outcome.statuses 4 = Some Sodal.Comp_ok)

(* A duplicate storm: every early frame delivered twice while the window
   is full. Replay records must answer every duplicate; nothing is
   applied twice. *)
let test_window_duplicate_storm () =
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Duplicate_next 12 };
      { Fault_plan.at_us = 40_000; action = Fault_plan.Duplicate_next 12 };
    ]
  in
  let outcome =
    run_windowed_harness ~seed:63 ~window:4 ~loss:0.0 ~handler_us:5_000 ~ops:8 plan
  in
  Alcotest.(check bool) "exactly once under duplication" true
    (exactly_once_unordered ~ops:8 outcome);
  Alcotest.(check bool) "all ops completed OK" true
    (Hashtbl.fold (fun _ st ok -> ok && st = Sodal.Comp_ok) outcome.statuses true)

(* ---- incast: many clients fan in on one server (PR 10) ----------------------- *)

(* [clients] windowed senders each push [ops] signals at one server.
   Returns (statuses keyed by (client, op), virtual finish time). The
   congestion regime the AIMD layer exists for: aggregate in-flight
   demand far exceeds what the shared medium absorbs, so queueing delay
   inflates roughly [clients]-fold and a static retransmission schedule
   fires spuriously on packets that are merely queued. *)
let run_incast ~seed ~clients ~ops ~window plan =
  let cost = { Cost.default with Cost.window; maxrequests = window + 1 } in
  let net, kernels = make_net ~seed ~cost (clients + 1) in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             ignore info.Sodal.arg;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let statuses = Hashtbl.create 256 in
  let done_count = ref 0 and finished_at = ref 0 in
  List.iteri
    (fun idx kernel ->
      if idx > 0 then
        ignore
          (Sodal.attach kernel
             {
               Sodal.default_spec with
               task =
                 (fun env ->
                   let sv = Sodal.server ~mid:0 ~pattern:patt in
                   let in_flight = ref 0 in
                   for i = 1 to ops do
                     while !in_flight >= window do
                       Sodal.idle env
                     done;
                     let tid = Sodal.signal env sv ~arg:i in
                     incr in_flight;
                     Sodal.on_completion_of env tid (fun c ->
                         decr in_flight;
                         Hashtbl.replace statuses (idx, i) c.Sodal.status;
                         incr done_count;
                         if !done_count = clients * ops then
                           finished_at := Sodal.now env)
                   done;
                   while !in_flight > 0 do
                     Sodal.idle env
                   done);
             }))
    kernels;
  Injector.install net plan;
  ignore (Network.run ~until:600_000_000 net);
  (statuses, !finished_at)

(* 16 clients -> 1 server through a mid-transfer loss burst: the batch
   must converge with every op COMPLETED (no false CRASHED verdict — a
   queued-but-alive server is not a crashed one) and a finish time within
   2x of the loss-free run of the same workload. Without the adaptive
   RTO + AIMD machinery this collapses: the static schedule undershoots
   the 16-deep queueing delay and the retransmit storm feeds itself. *)
let test_incast_converges_under_loss_burst () =
  let clients = 16 and ops = 8 and window = 8 in
  let plan =
    [
      { Fault_plan.at_us = 50_000;
        action = Fault_plan.Loss_burst { rate = 0.3; duration_us = 100_000 } };
    ]
  in
  let all_ok statuses =
    Hashtbl.fold (fun _ st ok -> ok && st = Sodal.Comp_ok) statuses true
  in
  let statuses_clean, t_clean = run_incast ~seed:64 ~clients ~ops ~window [] in
  let statuses_lossy, t_lossy = run_incast ~seed:64 ~clients ~ops ~window plan in
  Alcotest.(check int) "all ops completed (loss-free)" (clients * ops)
    (Hashtbl.length statuses_clean);
  Alcotest.(check int) "all ops completed (loss burst)" (clients * ops)
    (Hashtbl.length statuses_lossy);
  Alcotest.(check bool) "zero false CRASHED verdicts (loss-free)" true
    (all_ok statuses_clean);
  Alcotest.(check bool) "zero false CRASHED verdicts (loss burst)" true
    (all_ok statuses_lossy);
  Alcotest.(check bool)
    (Printf.sprintf "lossy run within 2x of loss-free (%d us <= 2 * %d us)" t_lossy
       t_clean)
    true
    (t_lossy <= 2 * t_clean)

(* ---- Karn's rule (scripted peer) --------------------------------------------- *)

module Transport = Soda_proto.Transport
module Wire = Soda_proto.Wire
module Nic = Soda_net.Nic
module Engine = Soda_sim.Engine
module Recorder = Soda_obs.Recorder

(* A scripted peer controls exactly which transmission of a REQUEST gets
   acknowledged. [ack_first = false] swallows the first copy and acks
   only the retransmission: the sender cannot know which copy the ack
   answers, so Karn's rule forbids the sample and the estimator must
   stay empty. The [ack_first = true] control run must sample. *)
let run_karn ~ack_first =
  let engine = Engine.create ~seed:17 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 4; maxrequests = 5 } in
  let sender = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  Transport.set_callbacks sender
    {
      Transport.deliver_request =
        (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic sender);
  let requests_seen = ref 0 in
  let peer = ref None in
  let p =
    Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
        match Wire.decode_sub payload ~off:0 ~len:(Bytes.length payload) with
        | Error _ -> ()
        | Ok pkt ->
          (match pkt.Wire.body with
           | Wire.Request _ ->
             incr requests_seen;
             if ack_first || !requests_seen >= 2 then begin
               let ack =
                 Wire.encode
                   { Wire.src = 1; reliable = false; seq = 0;
                     ack = Some pkt.Wire.seq; run = false; body = Wire.Ack }
               in
               Engine.schedule engine ~delay:500 (fun () ->
                   Nic.send (Option.get !peer) ~dst:0 ack)
             end
           | _ -> ()))
  in
  peer := Some p;
  (* Submit at a nonzero virtual time: a packet emitted at t=0 would be
     indistinguishable from the estimator's never-sent sentinel. *)
  Engine.schedule engine ~delay:1000 (fun () ->
      Transport.submit_request sender ~dst:1 ~tid:9001 ~pattern:patt ~arg:7
        ~put_data:Bytes.empty ~get_buffer:Bytes.empty);
  (* The delta-t record (and the estimator riding on it) expires after
     ~150 ms of silence, so snapshot the estimate while the record is
     still live rather than after the full run. *)
  let estimate = ref None in
  Engine.schedule engine ~delay:50_000 (fun () ->
      estimate := Transport.rtt_estimate_us sender ~peer:1);
  ignore (Engine.run ~until:5_000_000 engine);
  (!requests_seen, !estimate)

let test_karn_retransmit_never_samples () =
  let seen, estimate = run_karn ~ack_first:false in
  Alcotest.(check bool) "the REQUEST was retransmitted" true (seen >= 2);
  Alcotest.(check bool) "retransmitted packet never feeds the RTT estimator" true
    (estimate = None)

let test_karn_clean_ack_samples () =
  let seen, estimate = run_karn ~ack_first:true in
  Alcotest.(check int) "single transmission sufficed" 1 seen;
  match estimate with
  | Some (srtt, rttvar) ->
    Alcotest.(check bool) "positive smoothed RTT" true (srtt > 0);
    Alcotest.(check bool) "non-negative variance" true (rttvar >= 0)
  | None -> Alcotest.fail "clean first-transmission ack must sample the estimator"

(* ---- facilities under fault plans -------------------------------------------- *)

(* An RPC call across a partition cut + heal, with duplicated frames and
   jitter: the call must still return the one correct answer. *)
let test_rpc_under_partition_and_dup () =
  let net, kernels = make_net ~seed:21 2 in
  let double _env params =
    Bytes.of_string (string_of_int (2 * int_of_string (Bytes.to_string params)))
  in
  ignore (Sodal.attach (List.nth kernels 0) (Rpc.spec [ (patt, double) ]));
  let result = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             result :=
               Some
                 (Rpc.call env (Sodal.server ~mid:0 ~pattern:patt)
                    (Bytes.of_string "21") ~result_size:16));
       });
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Delay_jitter { min_us = 0; max_us = 500 } };
      { Fault_plan.at_us = 0; action = Fault_plan.Duplicate_next 2 };
      { Fault_plan.at_us = 2_000; action = Fault_plan.Partition ([ 0 ], [ 1 ]) };
      { Fault_plan.at_us = 60_000; action = Fault_plan.Heal };
    ]
  in
  Injector.install net plan;
  run net;
  match !result with
  | Some (Ok r) -> Alcotest.(check string) "rpc answer" "42" (Bytes.to_string r)
  | Some (Error _) -> Alcotest.fail "rpc failed under partition + heal"
  | None -> Alcotest.fail "rpc never returned"

(* The nameserver under duplicated frames: a duplicated REGISTER must not
   double-apply (the retry answers Already_registered, not a dangling
   second binding), and lookup still resolves after a cut + heal. *)
let test_nameserver_under_chaos () =
  let net, kernels = make_net ~seed:22 2 in
  ignore (Sodal.attach (List.nth kernels 0) (Nameserver.spec ()));
  let reg = ref None and again = ref None and looked = ref None and listed = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sb =
               Sodal.server ~mid:0 ~pattern:Nameserver.switchboard_pattern
             in
             let me = Sodal.server ~mid:1 ~pattern:patt in
             let rival = Sodal.server ~mid:1 ~pattern:(Pattern.well_known 0o556) in
             reg := Some (Nameserver.register env sb ~name:"svc/echo" me);
             (* a rival binding for the taken name: first-wins must hold
                even with the frames duplicated on the wire *)
             again := Some (Nameserver.register env sb ~name:"svc/echo" rival);
             looked := Some (Nameserver.lookup env sb ~name:"svc/echo");
             listed := Some (Nameserver.list env sb ~prefix:"svc"));
       });
  let plan =
    [
      { Fault_plan.at_us = 0; action = Fault_plan.Duplicate_next 4 };
      { Fault_plan.at_us = 8_000; action = Fault_plan.Partition ([ 0 ], [ 1 ]) };
      { Fault_plan.at_us = 50_000; action = Fault_plan.Heal };
    ]
  in
  Injector.install net plan;
  run net;
  Alcotest.(check bool) "registered" true (!reg = Some (Ok ()));
  Alcotest.(check bool) "duplicate register rejected" true
    (!again = Some (Error Nameserver.Already_registered));
  (match !looked with
   | Some (Ok sv) ->
     Alcotest.(check bool) "resolves to registrant" true
       (sv.Types.sv_mid = Types.Mid 1)
   | _ -> Alcotest.fail "lookup failed");
  match !listed with
  | Some (Ok names) -> Alcotest.(check (list string)) "listing" [ "svc/echo" ] names
  | _ -> Alcotest.fail "list failed"

(* A chunked stream through a partition cut + a 30% loss burst: the block
   must reassemble byte-identical, exactly once. *)
let test_stream_under_partition_and_burst () =
  let net, kernels = make_net ~seed:23 2 in
  let payload = String.init 3_000 (fun i -> Char.chr ((i mod 94) + 33)) in
  let blocks = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 0)
       (Stream.sink ~pattern:patt
          ~on_block:(fun _ ~src:_ block -> blocks := Bytes.to_string block :: !blocks)
          ()));
  let sent = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             sent :=
               Some
                 (Stream.send env (Sodal.server ~mid:0 ~pattern:patt)
                    ~chunk_bytes:200 (Bytes.of_string payload)));
       });
  let plan =
    [
      { Fault_plan.at_us = 10_000; action = Fault_plan.Partition ([ 0 ], [ 1 ]) };
      { Fault_plan.at_us = 70_000; action = Fault_plan.Heal };
      { Fault_plan.at_us = 150_000;
        action = Fault_plan.Loss_burst { rate = 0.3; duration_us = 100_000 } };
    ]
  in
  Injector.install net plan;
  run ~horizon:600.0 net;
  Alcotest.(check bool) "sender completed" true (!sent = Some (Ok ()));
  Alcotest.(check (list string)) "block reassembled exactly once" [ payload ] !blocks

(* A reliable multicast to a 4-member group with one member crashed in
   the middle of the round (40 ms member handlers hold the transfers
   open across the crash). Delivery-to-survivors: every surviving member
   must deliver exactly once with Comp_ok, the dead member gets an
   honest verdict (Comp_ok iff it delivered before dying), and the
   sender must not hang. *)
let test_multicast_delivery_to_survivors () =
  let group = [ 0; 1; 2; 3 ] and victim = 2 in
  let net, kernels = make_net ~seed:41 5 in
  let delivered = Hashtbl.create 8 in
  List.iter
    (fun mid ->
      ignore
        (Sodal.attach (List.nth kernels mid)
           {
             Sodal.default_spec with
             init = (fun env ~parent:_ -> Sodal.advertise env patt);
             on_request =
               (fun env _info ->
                 Sodal.compute env 40_000;
                 Hashtbl.replace delivered mid
                   (1 + Option.value ~default:0 (Hashtbl.find_opt delivered mid));
                 ignore (Sodal.accept_current_signal env ~arg:0));
           }))
    group;
  let outcomes = ref None in
  ignore
    (Sodal.attach (List.nth kernels 4)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 20_000;
             outcomes := Some (Multicast.signal env ~group ~pattern:patt ()));
       });
  Injector.install net
    [ { Fault_plan.at_us = 50_000; action = Fault_plan.Crash victim } ];
  run net;
  match !outcomes with
  | None -> Alcotest.fail "multicast never returned"
  | Some outcomes ->
    Alcotest.(check (list int)) "an outcome per member" group
      (List.sort compare (List.map (fun (o : Multicast.outcome) -> o.mid) outcomes));
    List.iter
      (fun (o : Multicast.outcome) ->
        let count = Option.value ~default:0 (Hashtbl.find_opt delivered o.mid) in
        if o.mid <> victim then begin
          Alcotest.(check bool) (Printf.sprintf "survivor %d ok" o.mid) true
            (o.status = Sodal.Comp_ok);
          Alcotest.(check int) (Printf.sprintf "survivor %d delivered once" o.mid) 1 count
        end
        else begin
          (* the victim's verdict must be honest: OK iff it delivered *)
          (match o.status with
           | Sodal.Comp_ok -> Alcotest.(check int) "victim delivered before dying" 1 count
           | Sodal.Comp_crashed -> Alcotest.(check bool) "victim at most once" true (count <= 1)
           | Sodal.Comp_rejected | Sodal.Comp_unadvertised ->
             Alcotest.fail "victim got a non-crash failure")
        end)
      outcomes

(* Bidding with the least-loaded bidder crashed mid-run: a client
   re-selects every 25 ms while the cheapest bidder (mid 1, load 1) is
   torn down. Every round must complete; rounds before the crash pick
   mid 1, rounds after its crash verdict pick the least-loaded survivor
   (mid 2, load 5), and no round may ever pick dead-and-known-dead
   bidders or hang. *)
let test_bidding_least_loaded_survivor () =
  let loads = [ (0, 10); (1, 1); (2, 5) ] in
  let net, kernels = make_net ~seed:42 4 in
  List.iter
    (fun (mid, load) ->
      let hook = ref (fun _ _ -> false) in
      ignore
        (Sodal.attach (List.nth kernels mid)
           {
             Sodal.default_spec with
             init =
               (fun env ~parent:_ ->
                 hook := Bidding.serve_bids env ~pattern:patt ~load:(fun () -> load));
             on_request =
               (fun env info ->
                 if not (!hook env info) then ignore (Sodal.accept_current_signal env ~arg:0));
           }))
    loads;
  let picks = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 3)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 30_000;
             for _ = 1 to 24 do
               let pick =
                 match Bidding.select env ~pattern:patt () with
                 | Some ({ Types.sv_mid = Types.Mid m; _ }, load) -> Some (m, load)
                 | Some ({ Types.sv_mid = Types.Broadcast_mid; _ }, _) | None -> None
               in
               picks := (Sodal.now env, pick) :: !picks;
               Sodal.compute env 25_000
             done);
       });
  Injector.install net
    [ { Fault_plan.at_us = 300_000; action = Fault_plan.Crash 1 } ];
  run net;
  let picks = List.rev !picks in
  Alcotest.(check int) "every round completed" 24 (List.length picks);
  (match picks with
   | (_, first) :: _ ->
     Alcotest.(check bool) "healthy round picks the cheapest bid" true
       (first = Some (1, 1))
   | [] -> ());
  (match List.rev picks with
   | (_, last) :: _ ->
     Alcotest.(check bool) "after the crash the cheapest survivor wins" true
       (last = Some (2, 5))
   | [] -> ());
  List.iter
    (fun (at, pick) ->
      match pick with
      | Some ((0 | 1 | 2), _) -> ()
      | Some (m, _) -> Alcotest.failf "picked unknown bidder %d at %d" m at
      | None -> Alcotest.failf "select returned nobody at %d" at)
    picks

let suites =
  [
    ( "chaos",
      [
        Helpers.qcheck prop_exactly_once_under_chaos;
        Alcotest.test_case "soak: composite plan over seed band" `Slow
          test_soak_composite_plan;
        Alcotest.test_case "adversary: ack eaten by partition" `Quick
          test_ack_eaten_by_partition;
        Alcotest.test_case "adversary: reboot between deliver and ACCEPT" `Quick
          test_reboot_between_deliver_and_accept;
        Alcotest.test_case "adversary: requester reboot, stale reply" `Quick
          test_requester_reboot_stale_reply;
        Alcotest.test_case "windowed: loss burst mid-window" `Quick
          test_window_loss_burst_mid_flight;
        Alcotest.test_case "windowed: crash with W-1 unacked" `Quick
          test_window_crash_with_unacked;
        Alcotest.test_case "windowed: duplicate storm" `Quick
          test_window_duplicate_storm;
        Alcotest.test_case "incast: 16 clients converge under loss burst" `Quick
          test_incast_converges_under_loss_burst;
        Alcotest.test_case "karn: retransmitted packet never samples RTT" `Quick
          test_karn_retransmit_never_samples;
        Alcotest.test_case "karn: clean ack samples RTT" `Quick
          test_karn_clean_ack_samples;
      ] );
    ( "chaos.facilities",
      [
        Alcotest.test_case "rpc under partition + duplication" `Quick
          test_rpc_under_partition_and_dup;
        Alcotest.test_case "nameserver under duplication + cut" `Quick
          test_nameserver_under_chaos;
        Alcotest.test_case "stream under cut + loss burst" `Quick
          test_stream_under_partition_and_burst;
        Alcotest.test_case "multicast delivers to survivors" `Quick
          test_multicast_delivery_to_survivors;
        Alcotest.test_case "bidding picks least-loaded survivor" `Quick
          test_bidding_least_loaded_survivor;
      ] );
  ]
