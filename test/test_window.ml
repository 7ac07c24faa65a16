(* Sliding-window transport conformance: modular sequence arithmetic,
   the cost-model clamps, and the window invariants that must hold under
   random loss / duplication / reordering.

   The wire-level encoding properties live in test_wire.ml; here the
   subject is the transport's *behaviour*: no acknowledgement of a packet
   that was never sent, at most W packets in flight, out-of-order
   arrivals parked only inside the receive window, and strict in-order
   delivery to the application regardless of what the wire did. *)

open Helpers
open Window_run
module Cost = Soda_base.Cost_model
module Event = Soda_obs.Event
module Recorder = Soda_obs.Recorder
module Metrics = Soda_obs.Metrics
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector
module Stream = Soda_facilities.Stream

let patt = Pattern.well_known 0o555

(* ---- cost-model clamps and modular arithmetic -------------------------------- *)

let test_window_clamps () =
  let w n = Cost.transport_window { Cost.default with Cost.window = n } in
  Alcotest.(check int) "0 clamps to 1" 1 (w 0);
  Alcotest.(check int) "negative clamps to 1" 1 (w (-3));
  Alcotest.(check int) "in range untouched" 5 (w 5);
  Alcotest.(check int) "above max clamps to max" Cost.max_window (w 100);
  Alcotest.(check int) "default is the seed's stop-and-wait" 1
    (Cost.transport_window Cost.default)

let test_seq_space () =
  let s n = Cost.seq_space { Cost.default with Cost.window = n } in
  Alcotest.(check int) "window 1 keeps the alternating bit" 2 (s 1);
  Alcotest.(check int) "window 2 widens to 4 bits" 16 (s 2);
  Alcotest.(check int) "window 8 widens to 4 bits" 16 (s 8);
  Alcotest.(check int) "window 9 widens to 8 bits" 256 (s 9);
  Alcotest.(check int) "window 64 stays within 8 bits" 256 (s 64);
  (* W <= S/2 must hold for every admissible window, or duplicate
     detection is ambiguous (a retransmit of base is indistinguishable
     from new data at base + W). *)
  for n = 1 to Cost.max_window do
    let c = { Cost.default with Cost.window = n } in
    Alcotest.(check bool)
      (Printf.sprintf "W=%d fits the sequence space" n)
      true
      (2 * Cost.transport_window c <= Cost.seq_space c)
  done

let test_client_window () =
  let cw n = Cost.client_window { Cost.default with Cost.maxrequests = n } in
  (* One slot is reserved for the reply of the oldest request (§4.4.1),
     and the floor is 1 so a degenerate MAXREQUESTS cannot deadlock the
     pipelined facilities. *)
  Alcotest.(check int) "maxrequests 3 -> 2 in flight" 2 (cw 3);
  Alcotest.(check int) "maxrequests 1 -> floor of 1" 1 (cw 1);
  Alcotest.(check int) "maxrequests 0 -> floor of 1" 1 (cw 0);
  Alcotest.(check int) "maxrequests 9 -> 8 in flight" 8 (cw 9)

(* The distance function the window logic is built on: dist base x is the
   number of forward steps from base to x in the modular space. *)
let dist s base x = ((x - base) + s) mod s

let prop_modular_roundtrip =
  QCheck.Test.make ~name:"modular seq distance inverts modular advance" ~count:500
    QCheck.(triple (int_bound 2) (int_bound 255) (int_bound 255))
    (fun (tier, base, d) ->
      let s = match tier with 0 -> 2 | 1 -> 16 | _ -> 256 in
      let base = base mod s and d = d mod s in
      let x = (base + d) mod s in
      dist s base x = d && dist s x ((x + ((s - d) mod s)) mod s) = (s - d) mod s)

(* ---- trace-level invariants -------------------------------------------------- *)

(* Every Acked event must correspond to an earlier Tx of the same (mid,
   tid, pkt): the transport may never mark a packet acknowledged that it
   never put on the wire. *)
let no_ack_of_unsent events =
  let sent = Hashtbl.create 64 in
  List.for_all
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Tx { tid; pkt; _ } ->
        Hashtbl.replace sent (e.Event.mid, tid, pkt) ();
        true
      | Event.Acked { tid; pkt; _ } -> Hashtbl.mem sent (e.Event.mid, tid, pkt)
      | _ -> true)
    events

(* Window_advance never reports more than W in flight; Window_buffer only
   parks packets strictly inside the receive window (0 < dist < W). The
   modular distance must be computed in the window's own tier of the
   sequence space (2 / 16 / 256). *)
let window_events_bounded ~window events =
  let space = Cost.seq_space { Cost.default with Cost.window = window } in
  List.for_all
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Window_advance { in_flight; _ } -> in_flight >= 0 && in_flight < window
      | Event.Window_buffer { seq; expected; _ } ->
        (* d = 0 is an in-order REQUEST held while the input buffer drains *)
        dist space expected seq < window
      | _ -> true)
    events

let max_occupancy kernel =
  match Metrics.histogram (Kernel.stats kernel) "net.window_occupancy" with
  | Some h -> Metrics.Histogram.max_value h
  | None -> 0

let payload = String.init 1_200 (fun i -> Char.chr ((i * 7 mod 94) + 33))

(* A clean wide-window run must actually pipeline: several packets in
   flight at once, the window base advancing as cumulative acks land, and
   a shorter wall-clock than the degenerate stop-and-wait run of the same
   workload. *)
let test_window_pipelines () =
  let _, _, _, _, t1 = run_stream ~seed:51 ~window:1 ~loss:0.0 payload in
  let sent, blocks, events, client, t4 = run_stream ~seed:51 ~window:4 ~loss:0.0 payload in
  Alcotest.(check bool) "send ok" true (sent = Some (Ok ()));
  Alcotest.(check (list string)) "block reassembled once" [ payload ] blocks;
  Alcotest.(check bool) "window actually opened (occupancy > 1)" true
    (max_occupancy client >= 2);
  Alcotest.(check bool) "occupancy never exceeds W" true (max_occupancy client <= 4);
  Alcotest.(check bool) "cumulative acks advanced the base" true
    (List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with Event.Window_advance _ -> true | _ -> false)
       events);
  Alcotest.(check bool)
    (Printf.sprintf "W=4 beats stop-and-wait (%d us < %d us)" t4 t1)
    true (t4 < t1)

(* Forced reordering: heavy per-frame jitter with a wide window makes
   later chunks overtake earlier ones on the wire; the receive window
   must park them (Window_buffer) and release them in order. *)
let test_window_reorders_parked () =
  let plan =
    [ { Fault_plan.at_us = 0;
        action = Fault_plan.Delay_jitter { min_us = 0; max_us = 3_000 } } ]
  in
  let sent, blocks, events, client, _ = run_stream ~seed:53 ~window:8 ~loss:0.0 ~plan payload in
  (match sent with
   | Some (Ok ()) -> ()
   | Some (Error e) ->
     Alcotest.failf "send failed: %s"
       (match e with Stream.Rejected -> "rejected" | Stream.Receiver_gone -> "receiver gone")
   | None -> Alcotest.fail "send never returned");
  Alcotest.(check (list string)) "in-order reassembly despite reordering" [ payload ]
    blocks;
  Alcotest.(check bool) "receiver parked out-of-order arrivals" true
    (List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with Event.Window_buffer _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "parked only inside the window" true
    (window_events_bounded ~window:8 events);
  Alcotest.(check bool) "no ack of an unsent packet" true (no_ack_of_unsent events);
  Alcotest.(check bool) "occupancy never exceeds W" true (max_occupancy client <= 8)

(* ---- the qcheck property ----------------------------------------------------- *)

let prop_window_invariants =
  QCheck.Test.make ~name:"window invariants under loss / dup / reorder" ~count:12
    (QCheck.make ~print:scenario_print gen_scenario)
    (fun s ->
      let sent, blocks, events, client, _ = run_scenario s payload in
      let ok_sent = sent = Some (Ok ()) in
      let ok_blocks = blocks = [ payload ] in
      let ok_occ = max_occupancy client <= s.window in
      let ok_ack = no_ack_of_unsent events in
      let ok_win = window_events_bounded ~window:s.window events in
      if not (ok_sent && ok_blocks && ok_occ && ok_ack && ok_win) then
        (* name the violated invariant next to qcheck's counterexample *)
        Printf.eprintf "window invariants: sent=%b blocks=%b occupancy<=W=%b(%d) \
                        acked-subset-of-sent=%b window-events-bounded=%b\n%!"
          ok_sent ok_blocks ok_occ (max_occupancy client) ok_ack ok_win;
      ok_sent && ok_blocks && ok_occ && ok_ack && ok_win)

(* ---- AIMD / RTT estimator unit laws ------------------------------------------ *)

let test_aimd_laws () =
  let c = { Cost.default with Cost.window = 8 } in
  Alcotest.(check bool) "increase adds the increment" true
    (Cost.aimd_increase c ~cwnd:2.0 = 3.0);
  Alcotest.(check bool) "increase caps at W" true (Cost.aimd_increase c ~cwnd:8.0 = 8.0);
  Alcotest.(check bool) "decrease halves" true (Cost.aimd_decrease c ~cwnd:8.0 = 4.0);
  Alcotest.(check bool) "decrease floors at 1" true (Cost.aimd_decrease c ~cwnd:1.0 = 1.0);
  Alcotest.(check bool) "initial cwnd within [1, W]" true
    (let i = Cost.cwnd_init c in 1.0 <= i && i <= 8.0);
  let srtt, rttvar = Cost.rtt_update c ~srtt_us:0.0 ~rttvar_us:0.0 ~sample_us:8_000 in
  Alcotest.(check bool) "first sample seeds srtt" true (srtt = 8_000.0);
  Alcotest.(check bool) "first sample seeds rttvar = sample/2" true (rttvar = 4_000.0);
  Alcotest.(check int) "empty estimator falls back to the static interval"
    c.Cost.retrans_interval_us
    (Cost.rto_us c ~srtt_us:0.0 ~rttvar_us:0.0);
  Alcotest.(check bool) "rto never undershoots the static interval" true
    (Cost.rto_us c ~srtt_us:100.0 ~rttvar_us:1.0 >= c.Cost.retrans_interval_us);
  Alcotest.(check bool) "rto tracks srtt + 4 rttvar once seeded" true
    (Cost.rto_us c ~srtt_us:100_000.0 ~rttvar_us:5_000.0 = 120_000)

(* Feeding the estimator a constant trace must contract srtt toward the
   sample at every step (the smoothed mean is a convex combination), and
   the variance term must stay non-negative throughout. *)
let prop_rtt_converges =
  QCheck.Test.make ~name:"constant RTT trace contracts the estimator" ~count:200
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 1_000_000) (int_range 1 50))
    (fun (start, sample, steps) ->
      let c = Cost.default in
      let target = float_of_int sample in
      let srtt = ref (float_of_int start)
      and rttvar = ref (float_of_int start /. 2.0)
      and ok = ref true in
      for _ = 1 to steps do
        let s', v' =
          Cost.rtt_update c ~srtt_us:!srtt ~rttvar_us:!rttvar ~sample_us:sample
        in
        if Float.abs (s' -. target) > Float.abs (!srtt -. target) +. 1e-6 || v' < 0.0
        then ok := false;
        srtt := s';
        rttvar := v'
      done;
      !ok)

(* End-to-end at the full 8-bit window: a lossy W=64 stream still
   reassembles, and every Cwnd_change / Rtt_sample the transport emits
   respects the AIMD bounds (cwnd in [1, W], growth only on acks,
   non-negative estimator state). *)
let wide_payload = String.init 5_000 (fun i -> Char.chr ((i * 11 mod 94) + 33))

let test_cwnd_events_bounded () =
  let sent, blocks, events, client, _ =
    run_stream ~seed:91 ~window:64 ~loss:0.05 wide_payload
  in
  Alcotest.(check bool) "send ok under loss" true (sent = Some (Ok ()));
  Alcotest.(check (list string)) "block reassembled once" [ wide_payload ] blocks;
  Alcotest.(check bool) "occupancy never exceeds W" true (max_occupancy client <= 64);
  Alcotest.(check bool) "no ack of an unsent packet" true (no_ack_of_unsent events);
  Alcotest.(check bool) "window events bounded in the 256 space" true
    (window_events_bounded ~window:64 events);
  Alcotest.(check bool) "cwnd grew on clean acks" true
    (List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with
         | Event.Cwnd_change { reason = Event.Cwnd_ack; _ } -> true
         | _ -> false)
       events);
  Alcotest.(check bool) "cwnd always within [1, W]; estimator state sane" true
    (List.for_all
       (fun (e : Event.t) ->
         match e.Event.kind with
         | Event.Cwnd_change { cwnd; in_flight; _ } ->
           1 <= cwnd && cwnd <= 64 && in_flight >= 0 && in_flight <= 64
         | Event.Rtt_sample { sample_us; srtt_us; rttvar_us; _ } ->
           sample_us >= 0 && srtt_us > 0 && rttvar_us >= 0
         | _ -> true)
       events)

(* A W=64 stream long enough to launch more than 256 reliable packets
   each way, so both ends' send and receive slots wrap, under 3% loss and
   up to 2.4 ms of jitter. Chunk 255's put data does not reach the sink
   with its REQUEST, so the sink's ACCEPT asks for it again, and that ACCEPT
   waits behind a gap in the client's receive window. The sink's wait for
   the data must start when the client acks the ACCEPT: started at the
   ACCEPT, it expired first and every later chunk was rejected. *)
let test_data_wait_behind_gap () =
  let plan =
    [ { Fault_plan.at_us = 0;
        action = Fault_plan.Delay_jitter { min_us = 0; max_us = 2_430 } } ]
  in
  let sent, blocks, events, client, _ =
    run_stream ~seed:604 ~window:64 ~loss:0.03 ~plan long_payload
  in
  Alcotest.(check bool) "send ok" true (sent = Some (Ok ()));
  Alcotest.(check (list string)) "block reassembled once" [ long_payload ] blocks;
  Alcotest.(check bool) "occupancy never exceeds W" true (max_occupancy client <= 64);
  Alcotest.(check bool) "window events bounded in the 256 space" true
    (window_events_bounded ~window:64 events)

(* ---- sequence-slot reuse across send eras (regression) ----------------------- *)

module Transport = Soda_proto.Transport
module Wire = Soda_proto.Wire
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic
module Engine = Soda_sim.Engine

(* A scripted fake peer replays the receive-side scenario the full stack
   cannot schedule deterministically: era A dies mid-window (its sender
   exhausted max_retrans on slot 1 while slots 2-3 were already stashed
   by the receiver), then era B reuses the same slots. The receiver must
   deliver exactly the era-B messages: a stale hold must neither shadow a
   new message reusing its slot (silently dropped as a "duplicate", then
   falsely acked) nor be delivered in its place when the base advances. *)
let test_slot_reuse_stale_stash () =
  let engine = Engine.create ~seed:11 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 4 } in
  let recv = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  let delivered = ref [] in
  Transport.set_callbacks recv
    {
      Transport.deliver_request =
        (fun ~src:_ ~tid ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          delivered := tid :: !delivered;
          `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic recv);
  let peer = Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
  let req ~tid ~seq ~run =
    Wire.encode
      {
        Wire.src = 1;
        reliable = true;
        seq;
        ack = None;
        run;
        body =
          Wire.Request
            { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0;
              data = Bytes.empty; retry = false };
      }
  in
  let at us frame =
    Engine.schedule engine ~delay:us (fun () -> Nic.send peer ~dst:0 frame)
  in
  (* era A: slot 0 delivered; slots 2-3 arrive out of order and are
     stashed; slot 1 is "lost" and era A's sender gives up on all three *)
  at 0 (req ~tid:101 ~seq:0 ~run:true);
  at 5_000 (req ~tid:102 ~seq:2 ~run:false);
  at 10_000 (req ~tid:103 ~seq:3 ~run:false);
  (* era B reuses slots 1-3; its slot-2 message overtakes the run start *)
  at 15_000 (req ~tid:202 ~seq:2 ~run:false);
  at 20_000 (req ~tid:201 ~seq:1 ~run:true);
  (* era-B packets that overtook the run start may have been flushed with
     the stale holds; their sender still holds them unacked, so they are
     retransmitted *)
  at 25_000 (req ~tid:202 ~seq:2 ~run:false);
  at 30_000 (req ~tid:203 ~seq:3 ~run:false);
  ignore (Engine.run ~until:100_000 engine);
  Alcotest.(check (list int)) "exactly the live-era messages, in order"
    [ 101; 201; 202; 203 ] (List.rev !delivered)

(* Duplicate replay at the edge of the 8-bit space. A scripted fake peer
   sends 300 in-order REQUESTs at W=64, so the numbers wrap, and the
   receiver refuses two of them, storing an ERROR for each. A
   retransmission of either -- one behind the base, or 192 behind it,
   the farthest number outside the window -- replays that ERROR and is
   not offered again; a different message at base - 192 is slot reuse:
   it resyncs and is delivered. *)
let test_replay_after_wrap () =
  let engine = Engine.create ~seed:13 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 64 } in
  let recv = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  let space = Cost.seq_space cost and n = 300 in
  let base = n mod space in
  let behind k = (base - k + space) mod space in
  (* request i goes out at seq (i mod space) with tid 1000 + i *)
  let last_tid_at seq = 1000 + if seq < base then seq + space else seq in
  let near = behind 1 and far = behind 192 in
  let refused = [ last_tid_at near; last_tid_at far ] in
  let offered = ref [] in
  Transport.set_callbacks recv
    {
      Transport.deliver_request =
        (fun ~src:_ ~tid ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          offered := tid :: !offered;
          if List.mem tid refused then `Unadvertised else `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic recv);
  let errors = ref [] in
  let peer =
    Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
        match Wire.decode payload with
        | Ok { Wire.body = Wire.Error { tid; _ }; _ } -> errors := tid :: !errors
        | Ok _ | Error _ -> ())
  in
  let req ~tid ~seq =
    Wire.encode
      {
        Wire.src = 1;
        reliable = true;
        seq;
        ack = None;
        run = tid = 1000;
        body =
          Wire.Request
            { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0;
              data = Bytes.empty; retry = false };
      }
  in
  let at us frame =
    Engine.schedule engine ~delay:us (fun () -> Nic.send peer ~dst:0 frame)
  in
  for i = 0 to n - 1 do
    at (i * 2_000) (req ~tid:(1000 + i) ~seq:(i mod space))
  done;
  let t = n * 2_000 in
  at (t + 20_000) (req ~tid:(last_tid_at near) ~seq:near);
  at (t + 40_000) (req ~tid:(last_tid_at far) ~seq:far);
  at (t + 60_000) (req ~tid:5000 ~seq:far);
  ignore (Engine.run ~until:(t + 100_000) engine);
  let count x l = List.length (List.filter (( = ) x) l) in
  Alcotest.(check int) "each message offered once, plus the reused slot" (n + 1)
    (List.length !offered);
  List.iter
    (fun tid ->
      Alcotest.(check int) (Printf.sprintf "tid %d offered once" tid) 1 (count tid !offered);
      Alcotest.(check int) (Printf.sprintf "tid %d's ERROR sent, then replayed" tid) 2
        (count tid !errors))
    refused;
  Alcotest.(check int) "the reused slot resynced and delivered" 5000 (List.hd !offered)

(* Window 1, non-pipelined: a mutual BUSY cycle. Each node's handler
   waits for put data from the other, and each ACCEPT asking for it is
   queued behind that node's own REQUEST to the other, which the other's
   parked handler keeps refusing. The scripted peer plays one side: it
   BUSYs every transmission of our REQUEST, and its own REQUEST reaches
   us as a dataless retry, so our ACCEPT asks for the data again. That
   ACCEPT never leaves the send queue, so it is never acked; the data
   wait, counted from the ACCEPT, must still end it CRASHED after one
   record lifetime. *)
let test_data_wait_accept_queued () =
  let engine = Engine.create ~seed:17 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let cost = Cost.non_pipelined in
  let node = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  let accepted_at = ref 0 and outcome = ref None in
  Transport.set_callbacks node
    {
      Transport.deliver_request =
        (fun ~src ~tid ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          Engine.schedule engine ~delay:1_000 (fun () ->
              accepted_at := Engine.now engine;
              Transport.accept node ~requester_mid:src ~requester_tid:tid ~arg:0
                ~get_capacity:64 ~data_out:Bytes.empty ~on_done:(fun o ->
                  outcome := Some (o, Engine.now engine)));
          `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic node);
  let busies = ref 0 and accepts_seen = ref 0 in
  let peer = ref None in
  let send frame =
    Engine.schedule engine ~delay:500 (fun () ->
        Nic.send (Option.get !peer) ~dst:0 frame)
  in
  let pkt ~reliable body = { Wire.src = 1; reliable; seq = 0; ack = None; run = false; body } in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Request { tid; _ }; _ } ->
             incr busies;
             send (Wire.encode (pkt ~reliable:false (Wire.Busy { tid })))
           | Ok { Wire.body = Wire.Accept _; _ } -> incr accepts_seen
           | Ok _ | Error _ -> ()));
  Transport.submit_request node ~dst:1 ~tid:500 ~pattern:patt ~arg:0
    ~put_data:(Bytes.make 64 'x') ~get_buffer:Bytes.empty;
  Engine.schedule engine ~delay:3_000 (fun () ->
      send
        (Wire.encode
           (pkt ~reliable:true
              (Wire.Request
                 { tid = 700; pattern = patt; arg = 0; put_size = 64; get_size = 0;
                   data = Bytes.empty; retry = true }))));
  let lifetime = Cost.record_expiry_us cost in
  ignore (Engine.run ~until:(3 * lifetime) engine);
  Alcotest.(check bool) "our REQUEST kept bouncing" true (!busies >= 5);
  Alcotest.(check int) "the ACCEPT never left the send queue" 0 !accepts_seen;
  match !outcome with
  | Some (Transport.Acc_crashed _, at) ->
    Alcotest.(check int) "CRASHED one record lifetime after the ACCEPT" lifetime
      (at - !accepted_at)
  | Some _ -> Alcotest.fail "the accept completed, but not CRASHED"
  | None -> Alcotest.fail "the handler still waits for the put data"

(* Window 1, non-pipelined: the same BUSY cycle keeps a dataless ACCEPT
   in the send queue behind our REQUEST. The accept is complete on our
   side at once, but the record that answers the requester's probes must
   outlive the ACCEPT: its expiry starts when the ACCEPT's reliable send
   resolves, not when the ACCEPT is queued. A probe one record lifetime
   after the ACCEPT must therefore hear "alive"; a "not alive" reply
   would complete a healthy requester's request CRASHED. *)
let test_record_outlives_queued_accept () =
  let engine = Engine.create ~seed:19 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let cost = Cost.non_pipelined in
  let lifetime = Cost.record_expiry_us cost in
  let node = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  let peer = ref None in
  let send ~delay frame =
    Engine.schedule engine ~delay (fun () -> Nic.send (Option.get !peer) ~dst:0 frame)
  in
  let pkt ~reliable body = { Wire.src = 1; reliable; seq = 0; ack = None; run = false; body } in
  let outcome = ref None in
  Transport.set_callbacks node
    {
      Transport.deliver_request =
        (fun ~src ~tid ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          Engine.schedule engine ~delay:1_000 (fun () ->
              Transport.accept node ~requester_mid:src ~requester_tid:tid ~arg:0
                ~get_capacity:0 ~data_out:Bytes.empty ~on_done:(fun o ->
                  outcome := Some o);
              (* probe once the record would have expired had its
                 lifetime started with the ACCEPT *)
              send ~delay:(lifetime + 20_000)
                (Wire.encode (pkt ~reliable:false (Wire.Probe { tid }))));
          `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic node);
  let accepts_seen = ref 0 and replies = ref [] in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Request { tid; _ }; _ } ->
             send ~delay:500 (Wire.encode (pkt ~reliable:false (Wire.Busy { tid })))
           | Ok { Wire.body = Wire.Accept _; _ } -> incr accepts_seen
           | Ok { Wire.body = Wire.Probe_reply { tid; alive }; _ } ->
             replies := (tid, alive) :: !replies
           | Ok _ | Error _ -> ()));
  Transport.submit_request node ~dst:1 ~tid:500 ~pattern:patt ~arg:0
    ~put_data:(Bytes.make 64 'x') ~get_buffer:Bytes.empty;
  send ~delay:3_000
    (Wire.encode
       (pkt ~reliable:true
          (Wire.Request
             { tid = 700; pattern = patt; arg = 0; put_size = 0; get_size = 0;
               data = Bytes.empty; retry = false })));
  ignore (Engine.run ~until:(2 * lifetime) engine);
  Alcotest.(check bool) "the accept completed on our side" true
    (match !outcome with Some (Transport.Acc_success _) -> true | _ -> false);
  Alcotest.(check int) "the ACCEPT never left the send queue" 0 !accepts_seen;
  Alcotest.(check (list (pair int bool))) "the probe hears alive" [ (700, true) ] !replies

(* Receive-side classification derives its sequence arithmetic from the
   LOCAL window; the bus refuses stations that disagree. *)
let test_window_mismatch_guard () =
  let engine = Engine.create ~seed:12 () in
  let recorder = Recorder.create () in
  let bus = Bus.create engine in
  let mk mid window =
    ignore
      (Transport.create ~engine ~bus ~mid ~cost:{ Cost.default with Cost.window } ~recorder)
  in
  mk 0 4;
  mk 1 4;
  let contains msg needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  match mk 2 1 with
  | () -> Alcotest.fail "mismatched station accepted"
  | exception Invalid_argument msg ->
    (* the diagnostic must name BOTH stations' windows and derived
       sequence spaces, or the operator cannot tell which side to fix *)
    Alcotest.(check bool) "names the incumbent window and space" true
      (contains msg "window 4 (seq space 16)");
    Alcotest.(check bool) "names the newcomer window and space" true
      (contains msg "window 1 (seq space 2)")

(* A pipelined W>1 kernel defers an in-order REQUEST while its input
   buffer is full. The hold must be bounded: a handler that stays busy
   past the sender's whole retransmission budget must surface as BUSY
   (indefinite adaptive retry, the seed's semantics), not a false
   CRASHED completion. *)
let test_long_busy_hold_nacks () =
  let cost = { Cost.default with Cost.window = 4; Cost.maxrequests = 4 } in
  let net, kernels = make_net ~seed:77 ~cost 2 in
  let server = List.nth kernels 0 and client = List.nth kernels 1 in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             (* hold the handler far beyond the r_us retransmission span *)
             Sodal.compute env 600_000;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let statuses = ref [] in
  ignore
    (Sodal.attach client
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let srv = Sodal.server ~mid:0 ~pattern:patt in
             let tids = List.init 3 (fun _ -> Sodal.signal env srv ~arg:0) in
             List.iter
               (fun tid ->
                 let c = Sodal.await_completion env tid in
                 statuses := c.Sodal.status :: !statuses)
               tids;
             Sodal.serve env);
       });
  run ~horizon:10.0 net;
  Alcotest.(check int) "all three requests completed" 3 (List.length !statuses);
  Alcotest.(check bool) "no request died of the hold" true
    (List.for_all (fun s -> s = Sodal.Comp_ok) !statuses);
  Alcotest.(check bool) "the hold was converted to a BUSY nack" true
    (Metrics.counter (Kernel.stats server) "req.held_nacked" >= 1)

(* ---- a CANCEL inside a W>1 send window -------------------------------------- *)

(* A scripted peer at W=4, no AIMD. REQUEST 1 is acked, so delivered.
   Then REQUEST 2, a CANCEL of 1 and REQUEST 3 go out together, in
   slots 1-3. A CANCEL is resolved by its Cancel_reply, never by a bare
   ack, so the slot it holds stops the sender's window base.
   [busy = false]: the peer acks slot 3 cumulatively, past the CANCEL,
   and sends the reply 5 ms later; REQUEST 3 may complete only after
   the reply. [busy = true]: REQUEST 4 follows in slot 4, and the peer
   refuses REQUEST 3 with a BUSY while the CANCEL still holds the base,
   then sends the reply carrying the ack of slot 4; the refused slot
   must be cleared when the CANCEL resolves, and REQUEST 3 retried.
   Either way every send completes once, in launch order, and a last
   REQUEST, sent after all are done, starts a new run just past the
   cleared slots. *)
let cancel_in_window ~busy () =
  let engine = Engine.create ~seed:19 () in
  let recorder = Recorder.create ~tracing:true () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 4; maxrequests = 8; aimd = false } in
  let t = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  Transport.set_callbacks t
    {
      Transport.deliver_request = (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic t);
  let submit tid =
    Transport.submit_request t ~dst:1 ~tid ~pattern:patt ~arg:0 ~put_data:Bytes.empty
      ~get_buffer:Bytes.empty
  in
  let last = if busy then 5 else 4 in
  (* first copies, by tid: REQUESTs as positive tids, the CANCEL as -1 *)
  let seen = Hashtbl.create 8 and run_of = Hashtbl.create 8 in
  let reply_at = ref max_int and cancelled = ref None in
  let peer = ref None in
  let send ?ack body =
    Nic.send (Option.get !peer) ~dst:0
      (Wire.encode { Wire.src = 1; reliable = false; seq = 0; ack; run = false; body })
  in
  let script () =
    let seq id = Hashtbl.find seen id in
    if busy then send ~ack:(seq 2) (Wire.Busy { tid = 3 })
    else send ~ack:(seq 3) Wire.Ack;
    Engine.schedule engine ~delay:5_000 (fun () ->
        reply_at := Engine.now engine;
        let ack = if busy then Some (seq 4) else None in
        send ?ack (Wire.Cancel_reply { tid = 1; ok = true }))
  in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Probe { tid }; _ } ->
             send (Wire.Probe_reply { tid; alive = true })
           | Ok ({ Wire.body = Wire.Request { tid; _ } | Wire.Cancel_request { tid }; seq; run; _ } as
                 pkt) ->
             let id = match pkt.Wire.body with Wire.Cancel_request _ -> -tid | _ -> tid in
             let first = not (Hashtbl.mem seen id) in
             if first then begin
               Hashtbl.replace seen id seq;
               Hashtbl.replace run_of id run
             end;
             if id = 1 || id = last || (busy && id = 3 && !reply_at < max_int) then
               send ~ack:seq Wire.Ack
             else if
               first && List.for_all (Hashtbl.mem seen) (if busy then [ 2; -1; 3; 4 ] else [ 2; -1; 3 ])
             then script ()
           | Ok _ | Error _ -> ()));
  submit 1;
  Engine.schedule engine ~delay:50_000 (fun () ->
      submit 2;
      Transport.cancel t ~tid:1 ~on_done:(fun ok ->
          cancelled := Some (ok, Engine.now engine, Recorder.length recorder));
      submit 3;
      if busy then submit 4);
  Engine.schedule engine ~delay:400_000 (fun () -> submit last);
  ignore (Engine.run ~until:600_000 engine);
  let events = Recorder.events recorder in
  let acked =
    List.filter_map
      (fun e ->
        match e.Event.kind with
        | Event.Acked { tid; pkt = Event.P_request; _ } -> Some (tid, e.Event.time_us)
        | _ -> None)
      events
  in
  let ok, cancel_at, cancel_pos =
    match !cancelled with
    | Some c -> c
    | None -> Alcotest.fail "the CANCEL never completed"
  in
  Alcotest.(check bool) "the CANCEL succeeded" true ok;
  Alcotest.(check bool) "the CANCEL completed on the reply" true (cancel_at >= !reply_at);
  let before_cancel =
    List.length
      (List.filter
         (fun (i, e) ->
           i < cancel_pos
           && match e.Event.kind with Event.Acked { pkt = Event.P_request; _ } -> true | _ -> false)
         (List.mapi (fun i e -> (i, e)) events))
  in
  let order = List.map fst acked in
  let expected = if busy then [ 1; 2; 4; 3; 5 ] else [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "every REQUEST acked once, in order" expected order;
  Alcotest.(check int) "only the sends ahead of the CANCEL completed before it" 2 before_cancel;
  Alcotest.(check bool) "REQUEST 3 completed after the reply" true
    (List.assoc 3 acked >= !reply_at);
  let window =
    List.filter_map
      (fun e ->
        match e.Event.kind with
        | Event.Window_advance { base; in_flight; _ } -> Some (base, in_flight)
        | _ -> None)
      events
  in
  let slots = if busy then 7 else 5 in
  Alcotest.(check (pair int int)) "the base cleared every slot" (slots, 0)
    (List.nth window (List.length window - 1));
  Alcotest.(check int) "the last REQUEST took the slot past them" (slots - 1)
    (Hashtbl.find seen last);
  Alcotest.(check bool) "and started a new run" true (Hashtbl.find run_of last);
  Alcotest.(check int) "nothing left outstanding but the delivered requests"
    (List.length expected - 1) (Transport.outstanding_requests t)

(* The BUSY case of [cancel_in_window] with the peer's standalone ack of
   slot 4 lost, so its Cancel_reply, 2 ms after the BUSY, carries no ack.
   The slot refused behind the unresolved CANCEL was folded into the
   parked ack, so the base clears it the moment the CANCEL resolves: a
   window advance to slot 4 with REQUEST 4 still in flight, before any
   later ack covers slot 3. *)
let test_refused_slot_cleared_on_cancel_reply () =
  let engine = Engine.create ~seed:23 () in
  let recorder = Recorder.create ~tracing:true () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 4; maxrequests = 8; aimd = false } in
  let t = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  Transport.set_callbacks t
    {
      Transport.deliver_request = (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic t);
  let submit tid =
    Transport.submit_request t ~dst:1 ~tid ~pattern:patt ~arg:0 ~put_data:Bytes.empty
      ~get_buffer:Bytes.empty
  in
  (* first copies' slots, by tid: REQUESTs as positive tids, the CANCEL as -1 *)
  let seen = Hashtbl.create 8 and reply_at = ref max_int and peer = ref None in
  let send ?ack body =
    Nic.send (Option.get !peer) ~dst:0
      (Wire.encode { Wire.src = 1; reliable = false; seq = 0; ack; run = false; body })
  in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Probe { tid }; _ } ->
             send (Wire.Probe_reply { tid; alive = true })
           | Ok ({ Wire.body = Wire.Request { tid; _ } | Wire.Cancel_request { tid }; seq; _ } as
                 pkt) ->
             let id = match pkt.Wire.body with Wire.Cancel_request _ -> -tid | _ -> tid in
             let first = not (Hashtbl.mem seen id) in
             if first then Hashtbl.replace seen id seq;
             if id = 1 || !reply_at < max_int then send ~ack:seq Wire.Ack
             else if first && List.for_all (Hashtbl.mem seen) [ 2; -1; 3; 4 ] then begin
               send ~ack:(Hashtbl.find seen 2) (Wire.Busy { tid = 3 });
               Engine.schedule engine ~delay:2_000 (fun () ->
                   reply_at := Engine.now engine;
                   send (Wire.Cancel_reply { tid = 1; ok = true }))
             end
           | Ok _ | Error _ -> ()));
  let cancelled = ref None in
  submit 1;
  Engine.schedule engine ~delay:50_000 (fun () ->
      submit 2;
      Transport.cancel t ~tid:1 ~on_done:(fun ok -> cancelled := Some ok);
      submit 3;
      submit 4);
  ignore (Engine.run ~until:400_000 engine);
  let events = Recorder.events recorder in
  Alcotest.(check (option bool)) "the CANCEL succeeded" (Some true) !cancelled;
  Alcotest.(check (list int)) "every REQUEST acked once, in order" [ 1; 2; 4; 3 ]
    (List.filter_map
       (fun e ->
         match e.Event.kind with
         | Event.Acked { tid; pkt = Event.P_request; _ } -> Some tid
         | _ -> None)
       events);
  match
    List.find_map
      (fun e ->
        match e.Event.kind with
        | Event.Window_advance { base; in_flight; _ } when e.Event.time_us >= !reply_at ->
          Some (base, in_flight)
        | _ -> None)
      events
  with
  | Some advance ->
    Alcotest.(check (pair int int)) "the reply's advance clears the refused slot"
      (Hashtbl.find seen 4, 1) advance
  | None -> Alcotest.fail "the window never advanced after the reply"

(* The BUSY case when the refused REQUEST is the last one in flight:
   REQUEST 2, a CANCEL of 1 and REQUEST 3 go out in slots 1-3, the peer
   acks slot 1 on a BUSY for REQUEST 3, and the Cancel_reply follows
   with no ack. The peer consumed slot 3 when it refused it, so the
   parked ack must clear it as the CANCEL resolves, and REQUEST 3 must
   relaunch on slot 4. Relaunched on slot 3 instead, it would reach the
   peer as a duplicate, which replays its BUSY. *)
let test_refused_last_slot_relaunches_fresh () =
  let engine = Engine.create ~seed:29 () in
  let recorder = Recorder.create ~tracing:true () in
  let bus = Bus.create engine in
  let cost = { Cost.default with Cost.window = 4; maxrequests = 8; aimd = false } in
  let t = Transport.create ~engine ~bus ~mid:0 ~cost ~recorder in
  Transport.set_callbacks t
    {
      Transport.deliver_request = (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Deliver);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic t);
  let submit tid =
    Transport.submit_request t ~dst:1 ~tid ~pattern:patt ~arg:0 ~put_data:Bytes.empty
      ~get_buffer:Bytes.empty
  in
  (* first copies' slots, by tid: REQUESTs as positive tids, the CANCEL
     as -1; every slot REQUEST 3 arrived on; the slots the peer consumed,
     and how many arrivals came on one of them again *)
  let seen = Hashtbl.create 8 and slots_of_3 = ref [] and duplicates = ref 0 in
  let consumed = ref [] and peer = ref None in
  let send ?ack body =
    Nic.send (Option.get !peer) ~dst:0
      (Wire.encode { Wire.src = 1; reliable = false; seq = 0; ack; run = false; body })
  in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Probe { tid }; _ } ->
             send (Wire.Probe_reply { tid; alive = true })
           | Ok ({ Wire.body = Wire.Request { tid; _ } | Wire.Cancel_request { tid }; seq; _ } as
                 pkt) ->
             let id = match pkt.Wire.body with Wire.Cancel_request _ -> -tid | _ -> tid in
             let first = not (Hashtbl.mem seen id) in
             if first then Hashtbl.replace seen id seq;
             if id = 3 then slots_of_3 := seq :: !slots_of_3;
             if List.mem seq !consumed then begin
               (* a consumed slot again: replay the BUSY it was refused with *)
               incr duplicates;
               send (Wire.Busy { tid })
             end
             else if id = 1 || (id = 3 && not first) then begin
               consumed := seq :: !consumed;
               send ~ack:seq Wire.Ack
             end
             else if first && List.for_all (Hashtbl.mem seen) [ 2; -1; 3 ] then begin
               consumed := seq :: Hashtbl.find seen 2 :: !consumed;
               send ~ack:(Hashtbl.find seen 2) (Wire.Busy { tid = 3 });
               Engine.schedule engine ~delay:2_000 (fun () ->
                   send (Wire.Cancel_reply { tid = 1; ok = true }))
             end
           | Ok _ | Error _ -> ()));
  let cancelled = ref None in
  submit 1;
  Engine.schedule engine ~delay:50_000 (fun () ->
      submit 2;
      Transport.cancel t ~tid:1 ~on_done:(fun ok -> cancelled := Some ok);
      submit 3);
  ignore (Engine.run ~until:400_000 engine);
  let events = Recorder.events recorder in
  Alcotest.(check (option bool)) "the CANCEL succeeded" (Some true) !cancelled;
  Alcotest.(check (list int)) "every REQUEST acked once, in order" [ 1; 2; 3 ]
    (List.filter_map
       (fun e ->
         match e.Event.kind with
         | Event.Acked { tid; pkt = Event.P_request; _ } -> Some tid
         | _ -> None)
       events);
  let refused = Hashtbl.find seen 3 in
  Alcotest.(check (list int)) "the relaunch took a fresh sequence number"
    [ refused; refused + 1 ] (List.rev !slots_of_3);
  Alcotest.(check int) "the peer saw no duplicate" 0 !duplicates;
  Alcotest.(check int) "nothing left outstanding but REQUESTs 2 and 3" 2
    (Transport.outstanding_requests t)


(* ---- the send window alone: the ack walk ------------------------------------ *)

module Window = Soda_proto.Send_window

(* A send window to peer 1 on a fresh engine, AIMD off: transmissions go
   nowhere and the test plays the peer by calling [Window.ack]. *)
let bare_window ~window =
  let engine = Engine.create ~seed:5 () in
  let cost = { Cost.default with Cost.window; aimd = false } in
  let stats = Metrics.create () in
  let env =
    {
      Window.engine;
      bus = Soda_net.Bus.create engine;
      cost;
      rng = Soda_sim.Rng.create ~seed:5;
      stats;
      recorder = Recorder.create ();
      event = ignore;
      transmit = (fun _ ~seq:_ ~run:_ _ -> ());
      ack_due = ignore;
      shared = Window.shared stats;
    }
  in
  (Window.create env ~peer:1, Cost.seq_space cost)

let put_data tid = Wire.Put_data { tid; data = Bytes.empty }

(* A warm window acks 10,000 launched messages, one at a time and then in
   cumulative batches of 3, and the walks allocate nothing: the acked
   messages go on the node's preallocated scratch, not in a list. Only
   the [Window.ack] calls are measured; launching allocates each message. *)
let test_ack_walk_allocates_nothing () =
  let w, space = bare_window ~window:4 in
  let sent = ref 0 and acked = ref 0 and words = ref 0 in
  (* Each outcome names its window's peer. *)
  let on_done peer _ _ = if peer = 1 then incr acked in
  let send () =
    Window.send w K_put_data ~tid:!sent (put_data !sent) on_done;
    incr sent
  in
  let ack_last ~measured =
    let w0 = Gc.minor_words () in
    Window.ack w ((!sent - 1) mod space);
    if measured then words := !words + int_of_float (Gc.minor_words () -. w0)
  in
  let round ~batch ~measured =
    for _ = 1 to batch do
      send ()
    done;
    ack_last ~measured
  in
  round ~batch:1 ~measured:false;
  round ~batch:3 ~measured:false;
  let warm = !acked in
  for _ = 1 to 4_999 do
    round ~batch:1 ~measured:true
  done;
  for _ = 1 to 1_667 do
    round ~batch:3 ~measured:true
  done;
  Alcotest.(check int) "every launched message acked" 10_000 (!acked - warm);
  Alcotest.(check bool) "nothing left in flight" false (Window.active w);
  Alcotest.(check bool)
    (Printf.sprintf "10,000 acks allocate under 16 words (%d)" !words)
    true (!words < 16)

(* One cumulative ack covers A, B and C, and A's [on_done] re-enters the
   same window: it sends D, or it resolves the CANCEL X launched behind
   them. With [uncovered] messages launched between C and X (W=8), that
   resolution starts a second ack walk, over them, while the first still
   has B and C to tell. Every [on_done] runs exactly once, each walk's in
   launch order: a walk that reused the first one's scratch entries would
   tell one message twice and lose another. *)
let ack_reentrant ~window ~reentry ~uncovered () =
  let w, _ = bare_window ~window in
  let log = ref [] in
  let note name _ _ outcome =
    let o =
      match outcome with
      | Window.Out_acked -> "acked"
      | Out_cancel_reply true -> "cancelled"
      | Out_cancel_reply false | Out_error _ | Out_timeout -> "failed"
    in
    log := (name ^ " " ^ o) :: !log
  in
  let send tid on_done = Window.send w K_put_data ~tid (put_data tid) on_done in
  send 1 (fun peer tid o ->
      note "A" peer tid o;
      match reentry with
      | `Send -> send 4 (note "D")
      | `Cancel -> Window.cancel_reply w ~tid:9 true);
  send 2 (note "B");
  send 3 (note "C");
  List.iteri (fun i name -> send (5 + i) (note name)) uncovered;
  if reentry = `Cancel then
    Window.send w K_cancel ~tid:9 (Wire.Cancel_request { tid = 9 }) (note "X");
  Window.ack w 2;
  let expected =
    match reentry with
    | `Send -> [ "A acked"; "B acked"; "C acked" ]
    | `Cancel -> ("A acked" :: List.map (fun n -> n ^ " acked") uncovered)
                 @ [ "X cancelled"; "B acked"; "C acked" ]
  in
  Alcotest.(check (list string)) "each on_done once, each walk in launch order" expected
    (List.rev !log);
  (match reentry with
   | `Send ->
     Alcotest.(check bool) "D launched" true (Window.active w);
     Window.ack w 3;
     Alcotest.(check (list string)) "D acked after" (expected @ [ "D acked" ]) (List.rev !log)
   | `Cancel -> ());
  Alcotest.(check bool) "nothing left in flight" false (Window.active w)

(* ---- a reused window ---------------------------------------------------------- *)

(* A node at W=8 with AIMD on whose windows log every transmission
   (with the owed ack of [cur] it carries), outcome and standalone ack
   with the time and the event ids taken so far, and keep the
   transmitted (seq, tid) pairs, latest first. *)
type logged = {
  clock : Engine.t;
  env : Window.env;
  log : string list ref;  (* latest first *)
  sent : (int * int) list ref;
  cur : Window.t option ref;  (* the window in use *)
}

let logged_node () =
  let clock = Engine.create ~seed:9 () in
  let cost = { Cost.default with Cost.window = 8; aimd = true } in
  let stats = Metrics.create () in
  let log = ref [] and sent = ref [] and cur = ref None in
  let stamp what =
    log :=
      Printf.sprintf "%d #%d %s" (Engine.now clock) (Engine.counters clock).scheduled what :: !log
  in
  let transmit peer ~seq ~run body =
    sent := (seq, Wire.tid body) :: !sent;
    let ack = match !cur with Some w -> Window.take_ack w | None -> -1 in
    stamp
      (Printf.sprintf "tx peer %d seq %d%s ack %d %s %d" peer seq (if run then " run" else "") ack
         (Event.pkt_name (Wire.pkt body)) (Wire.tid body))
  in
  let env =
    {
      Window.engine = clock;
      bus = Soda_net.Bus.create clock;
      cost;
      rng = Soda_sim.Rng.create ~seed:9;
      stats;
      recorder = Recorder.create ();
      event = ignore;
      transmit;
      ack_due = (fun peer -> stamp (Printf.sprintf "ack due peer %d" peer));
      shared = Window.shared stats;
    }
  in
  { clock; env; log; sent; cur }

let note_outcome n peer tid outcome =
  let o =
    match outcome with
    | Window.Out_acked -> "acked"
    | Out_error _ -> "error"
    | Out_cancel_reply ok -> Printf.sprintf "cancel reply %b" ok
    | Out_timeout -> "timeout"
  in
  n.log :=
    Printf.sprintf "%d #%d done peer %d tid %d %s" (Engine.now n.clock)
      (Engine.counters n.clock).scheduled peer tid o
    :: !(n.log)

let request tid =
  Wire.Request
    { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0; data = Bytes.empty; retry = false }

(* 200 words of DATA: its transmission waits out a copy. *)
let put_data_copied tid = Wire.Put_data { tid; data = Bytes.make 400 'd' }

let run_for n us = ignore (Engine.run_for n.clock ~duration:us)

(* Random sends, acks, BUSYs, owed acks taken or left to come due, and
   waits on [w], then no more retries and acks until it is quiet, and
   last a REQUEST left to time out: the window ends with its RTO shift
   raised and cwnd cut. *)
let warm_up n w ~seed =
  let rand = Random.State.make [| seed |] in
  let requeue = ref true in
  let latest () = match !(n.sent) with (seq, _) :: _ -> Some seq | [] -> None in
  let take () =
    let a = Window.take_ack w in
    if a >= 0 then n.log := Printf.sprintf "took ack %d" a :: !(n.log)
  in
  for i = 1 to 80 do
    match Random.State.int rand 8 with
    | 0 -> Window.send w K_request ~tid:i (request i) (note_outcome n)
    | 1 -> Window.send w K_put_data ~tid:i (put_data_copied i) (note_outcome n)
    | 2 -> Option.iter (Window.ack w) (latest ())
    | 3 -> (
      match !(n.sent) with
      | (_, tid) :: _ -> Window.busy w ~tid (fun () -> !requeue)
      | [] -> ())
    | 4 -> Window.owe_ack w ~hold:(Random.State.int rand 5_000) i
    | 5 -> take ()
    | _ -> run_for n (Random.State.int rand 40_000)
  done;
  requeue := false;
  let rounds = ref 0 in
  while (not (Window.quiet w)) && !rounds < 1_000 do
    take ();
    Option.iter (Window.ack w) (latest ());
    run_for n 50_000;
    incr rounds
  done;
  Window.send w K_request ~tid:500 (request 500) (note_outcome n);
  while (not (Window.quiet w)) && !rounds < 2_000 do
    run_for n 100_000;
    incr rounds
  done;
  Alcotest.(check bool) "the warmed window is quiet" true (Window.quiet w)

(* The same script on any window to peer 2: an owed ack that the first
   transmission carries, six REQUESTs and a DATA that waits out its
   copy, retransmissions before the first ack, a BUSY, a cumulative ack,
   an owed ack left to come due, and the rest left to time out. *)
let script n w =
  let first = List.length !(n.sent) in
  Window.owe_ack w ~hold:3_000 7;
  for tid = 1000 to 1005 do
    Window.send w K_request ~tid (request tid) (note_outcome n)
  done;
  Window.send w K_put_data ~tid:1006 (put_data_copied 1006) (note_outcome n);
  run_for n 40_000;
  let seq_of k = fst (List.nth (List.rev !(n.sent)) (first + k)) in
  Window.ack w (seq_of 0);
  Window.busy w ~tid:1001 (fun () -> true);
  run_for n 30_000;
  Window.ack w (fst (List.hd !(n.sent)));
  Window.owe_ack w ~hold:3_000 8;
  run_for n 3_000_000

(* A quiet window reused for peer 2 behaves event for event as a window
   [create]d for peer 2 on a twin node with the same history: the same
   transmissions and outcomes, at the same times and event ids. *)
let test_reused_window_is_fresh () =
  List.iter
    (fun seed ->
      let a = logged_node () and b = logged_node () in
      let wa = Window.create a.env ~peer:1 and wb = Window.create b.env ~peer:1 in
      a.cur := Some wa;
      b.cur := Some wb;
      warm_up a wa ~seed;
      warm_up b wb ~seed;
      Alcotest.(check (list string)) "twin histories" !(a.log) !(b.log);
      let before = List.length !(a.log) in
      Window.reuse wa ~peer:2;
      script a wa;
      let fresh = Window.create b.env ~peer:2 in
      b.cur := Some fresh;
      script b fresh;
      let tail n = List.filteri (fun i _ -> i < List.length !(n.log) - before) !(n.log) in
      Alcotest.(check bool) "the script transmits" true (List.length (tail a) > 10);
      Alcotest.(check (list string))
        (Printf.sprintf "warm-up seed %d: reused = created" seed)
        (List.rev (tail b)) (List.rev (tail a)))
    [ 1; 2; 3 ]

(* A window that still owes an ack, or has a send launched, is not quiet,
   and [reuse] refuses it: either would reach the next peer. *)
let test_reuse_refuses_busy_window () =
  let n = logged_node () in
  let w = Window.create n.env ~peer:1 in
  let refused () =
    match Window.reuse w ~peer:2 with () -> false | exception Invalid_argument _ -> true
  in
  Window.owe_ack w ~hold:1_000 3;
  Alcotest.(check bool) "an owed ack" true (refused ());
  run_for n 2_000;
  Alcotest.(check bool) "an owed ack whose hold ended" true (refused ());
  Alcotest.(check int) "the ack taken" 3 (Window.take_ack w);
  Window.send w K_request ~tid:1 (request 1) (note_outcome n);
  Alcotest.(check bool) "a launched send" true (refused ());
  Window.ack w 0;
  run_for n 1_000;
  Alcotest.(check bool) "quiet" true (Window.quiet w);
  Window.reuse w ~peer:2

(* A node reset empties the lines its windows share: a window with a
   retransmission deadline, an ack hold and a copy under way runs none
   of them after [Window.reset], and the engine has nothing left to do. *)
let test_reset_ends_every_wait () =
  let n = logged_node () in
  let w = Window.create n.env ~peer:1 in
  n.cur := Some w;
  Window.send w K_request ~tid:1 (request 1) (note_outcome n);
  Window.send w K_put_data ~tid:2 (put_data_copied 2) (note_outcome n);
  Window.owe_ack w ~hold:3_000 5;
  Alcotest.(check int) "the REQUEST went out, the DATA is being copied" 1 (List.length !(n.log));
  Alcotest.(check int) "the waits and copy lines are armed" 2 (Engine.pending n.clock);
  Window.reset n.env;
  Alcotest.(check int) "nothing pending after the reset" 0 (Engine.pending n.clock);
  let before = !(n.log) in
  run_for n 10_000_000;
  Alcotest.(check (list string)) "no window callback after the reset" before !(n.log)

(* ---- the receiving half through its interface ------------------------------ *)

module Rx = Soda_proto.Recv_window

(* A receive window of width [window] with its stats, and packets from
   peer 1: a REQUEST or an ACCEPT for [tid] at sequence number [seq]. *)
let bare_rx ~window =
  let cost = { Cost.default with Cost.window } in
  let stats = Metrics.create () in
  (Rx.create (Rx.shared stats cost), stats, Cost.seq_space cost)

let rx_pkt ?(run = false) ~seq body =
  { Wire.src = 1; reliable = true; seq; ack = None; run; body }

let rx_req ?run ~seq tid =
  rx_pkt ?run ~seq
    (Wire.Request
       { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0; data = Wire.no_data;
         retry = false })

let rx_acc ?run ~seq tid =
  rx_pkt ?run ~seq
    (Wire.Accept
       { tid; arg = 0; put_transferred = 0; need_put_data = false; data = Wire.no_data })

let cls_name = function
  | Rx.In_order -> "in-order"
  | Out_of_order -> "out-of-order"
  | Dup -> "dup"
  | Resync -> "resync"
  | No_sync -> "no-sync"
  | Unsequenced -> "unsequenced"

let check_cls what want w pkt =
  Alcotest.(check string) what (cls_name want) (cls_name (Rx.classify w pkt))

(* Consume [pkt], which must be in order and displace nothing. *)
let rx_consume w pkt =
  check_cls "in order" Rx.In_order w pkt;
  Alcotest.(check bool) "nothing displaced" false (Rx.consume w ~resync:false pkt)

(* In order the base follows each consume; at W > 1 a packet ahead of a gap
   is stashed and becomes the head once the gap fills. *)
let test_rx_in_order_and_gap ~window () =
  let w, _, _ = bare_rx ~window in
  Alcotest.(check int) "no base yet" (-1) (Rx.base w);
  Alcotest.(check int) "no ack yet" (-1) (Rx.cum_ack w);
  rx_consume w (rx_req ~run:true ~seq:0 10);
  Alcotest.(check int) "base past it" 1 (Rx.base w);
  Alcotest.(check int) "acks it" 0 (Rx.cum_ack w);
  if window = 1 then
    (* the alternating bit: the next number after the base is the one
       just consumed, never a gap *)
    check_cls "number behind" Rx.Dup w (rx_req ~seq:0 10)
  else begin
    let late = rx_acc ~seq:3 13 in
    check_cls "ahead of a gap" Rx.Out_of_order w late;
    Alcotest.(check bool) "stashed" true (Rx.stash w late = Rx.Stashed);
    Alcotest.(check bool) "active" true (Rx.active w);
    Alcotest.(check bool) "gap: no head" true (Rx.head w == Rx.none);
    rx_consume w (rx_req ~seq:1 11);
    rx_consume w (rx_req ~seq:2 12);
    Alcotest.(check bool) "gap filled: the stash is the head" true (Rx.head w == late);
    rx_consume w late;
    Alcotest.(check bool) "nothing left" false (Rx.active w);
    Alcotest.(check int) "base past the stash" 4 (Rx.base w)
  end

(* A duplicate behind the window replays the stored response; a consume
   with none replays a bare ack. *)
let test_rx_replay ~window () =
  let w, _, _ = bare_rx ~window in
  let a = rx_req ~run:true ~seq:0 20 and b = rx_acc ~seq:1 21 in
  rx_consume w a;
  Rx.respond w a (Wire.Busy { tid = 20 });
  check_cls "a duplicate" Rx.Dup w (rx_req ~seq:0 20);
  Alcotest.(check bool) "replays the BUSY" true (Rx.response w a = Wire.Busy { tid = 20 });
  rx_consume w b;
  check_cls "b duplicate" Rx.Dup w (rx_acc ~seq:1 21);
  Alcotest.(check bool) "no response: a bare ack" true (Rx.response w b = Wire.Ack);
  if window > 1 then begin
    check_cls "a still a duplicate" Rx.Dup w a;
    Alcotest.(check bool) "a still replays the BUSY" true (Rx.response w a = Wire.Busy { tid = 20 })
  end

(* A different message on a number behind the window is a reuse: its
   consume forgets both the stash and every replay record. *)
let test_rx_resync ~window () =
  let w, _, space = bare_rx ~window in
  let consumed = if window = 1 then 1 else 3 in
  for i = 0 to consumed - 1 do
    rx_consume w (rx_req ~run:(i = 0) ~seq:i (30 + i))
  done;
  if window > 1 then ignore (Rx.stash w (rx_acc ~seq:(consumed + 1) 39));
  (* far enough behind that seq 0 is behind the new base as well *)
  let reuse = rx_req ~seq:(if window = 1 then 0 else space / 2) 40 in
  check_cls "another message behind" Rx.Resync w reuse;
  Alcotest.(check bool) "nothing displaced" false (Rx.consume w ~resync:true reuse);
  Alcotest.(check bool) "the stash is forgotten" false (Rx.active w);
  Alcotest.(check int) "base past the reuse" ((reuse.Wire.seq + 1) mod space) (Rx.base w);
  check_cls "seq 0's record is forgotten" Rx.Resync w (rx_req ~seq:0 30)

(* Before the first consume, a packet that is not a run start is taken
   at W = 1 and dropped at W > 1; a run start is taken at any width. *)
let test_rx_no_sync ~window () =
  let w, _, space = bare_rx ~window in
  let seq = 5 mod space in
  check_cls "not a run start" (if window = 1 then Rx.In_order else Rx.No_sync) w (rx_req ~seq 50);
  check_cls "a run start" Rx.In_order w (rx_req ~run:true ~seq 50);
  check_cls "an ack" Rx.Unsequenced w (rx_pkt ~seq:0 Wire.Ack)

(* A second message on a stashed number replaces the first: the sender
   reused the number. A copy of the stashed message is kept as it was. *)
let test_rx_stale_stash ~window () =
  let w, stats, _ = bare_rx ~window in
  rx_consume w (rx_req ~run:true ~seq:0 60);
  if window = 1 then
    for s = 0 to 1 do
      Alcotest.(check bool) "no gap at W=1" true
        (Rx.classify w (rx_req ~seq:s 61) <> Rx.Out_of_order)
    done
  else begin
    let x = rx_req ~seq:2 61 and y = rx_req ~seq:2 62 in
    Alcotest.(check bool) "stashed" true (Rx.stash w x = Rx.Stashed);
    Alcotest.(check bool) "a copy is not stashed again" true
      (Rx.stash w (rx_req ~seq:2 61) = Rx.Already_stashed);
    Alcotest.(check bool) "another message replaces it" true (Rx.stash w y = Rx.Replaced_stale);
    Alcotest.(check int) "one stale replaced" 1 (Metrics.counter stats "pkt.window_stale_replaced");
    rx_consume w (rx_req ~seq:1 63);
    Alcotest.(check bool) "the live message is the head" true (Rx.head w == y)
  end

(* A run start voids every other stash; only a copy of the run start
   itself, held at the head, survives. *)
let test_rx_run_flush ~window () =
  let w, stats, _ = bare_rx ~window in
  rx_consume w (rx_req ~run:true ~seq:0 70);
  let run = rx_req ~run:true ~seq:1 71 in
  Alcotest.(check int) "nothing to flush" 0 (Rx.flush_run_stale w run);
  ignore (Rx.stash w run);
  let stale = if window = 1 then [] else [ 2; 3 ] in
  List.iter (fun s -> ignore (Rx.stash w (rx_acc ~seq:s (80 + s)))) stale;
  Alcotest.(check int) "flushed all but the run start" (List.length stale)
    (Rx.flush_run_stale w (rx_req ~run:true ~seq:1 71));
  Alcotest.(check bool) "the run start stays the head" true (Rx.head w == run);
  Alcotest.(check int) "flushes counted"
    (if stale = [] then 0 else 1)
    (Metrics.counter stats "pkt.window_stale_flushed")

(* A held REQUEST counts its swallowed retransmissions; at the limit it
   is consumed, and its BUSY replays to later copies. *)
let test_rx_held_limit ~window () =
  let w, stats, _ = bare_rx ~window in
  rx_consume w (rx_req ~run:true ~seq:0 90);
  let h = rx_req ~seq:1 91 in
  check_cls "at the base" Rx.In_order w h;
  ignore (Rx.stash w h);
  Alcotest.(check bool) "first hold queues" true (Rx.hold w h);
  Alcotest.(check bool) "a second does not" false (Rx.hold w h);
  let copy = rx_req ~seq:1 91 in
  Alcotest.(check bool) "a copy finds the held original" true (Rx.head_copy w copy == h);
  let limit = max 1 (Cost.default.Cost.max_retrans - 2) in
  for _ = 1 to limit - 1 do
    Alcotest.(check bool) "below the limit" false (Rx.held_retry w h)
  done;
  Alcotest.(check bool) "at the limit" true (Rx.held_retry w h);
  Alcotest.(check int) "held_nacked" 1 (Metrics.counter stats "req.held_nacked");
  Alcotest.(check int) "busy_deferred" 2 (Metrics.counter stats "req.busy_deferred");
  rx_consume w h;
  Rx.respond w h (Wire.Busy { tid = 91 });
  Rx.release w;
  check_cls "a later copy" Rx.Dup w copy;
  Alcotest.(check bool) "replays the BUSY" true (Rx.response w copy = Wire.Busy { tid = 91 })

(* On first contact with the input buffer full, the run start is held
   before any base exists: it is the head, and consuming it sets the base. *)
let test_rx_first_contact_hold ~window () =
  let w, _, space = bare_rx ~window in
  let seq = 7 mod space in
  let h = rx_req ~run:true ~seq 100 in
  ignore (Rx.stash w h);
  Alcotest.(check bool) "queued" true (Rx.hold w h);
  Alcotest.(check int) "still no base" (-1) (Rx.base w);
  Alcotest.(check bool) "the hold is the head" true (Rx.head w == h);
  rx_consume w h;
  Alcotest.(check int) "base past it" ((seq + 1) mod space) (Rx.base w);
  Alcotest.(check bool) "nothing stashed" false (Rx.active w)

(* A held REQUEST whose number another message consumes is dropped with
   it: it is not left behind the base to be delivered when the numbers
   come round again. *)
let test_rx_held_displaced ~window () =
  let w, stats, space = bare_rx ~window in
  rx_consume w (rx_req ~run:true ~seq:0 110);
  let h = rx_req ~seq:1 111 in
  ignore (Rx.stash w h);
  ignore (Rx.hold w h);
  let other = rx_acc ~seq:1 112 in
  check_cls "the other message is in order" Rx.In_order w other;
  Alcotest.(check bool) "displaces the held one" true (Rx.consume w ~resync:false other);
  Alcotest.(check int) "counted as stale" 1 (Metrics.counter stats "pkt.window_stale_replaced");
  Alcotest.(check bool) "nothing stashed" false (Rx.active w);
  for i = 2 to space do
    rx_consume w (rx_acc ~seq:(i mod space) (120 + i))
  done;
  Alcotest.(check int) "the numbers came round" 1 (Rx.base w);
  Alcotest.(check bool) "the held REQUEST is gone" true (Rx.head w == Rx.none)

let rx_cases =
  [ ("in order, and a gap filled from the stash", test_rx_in_order_and_gap);
    ("duplicate replays its response or a bare ack", test_rx_replay);
    ("slot reuse forgets stash and records", test_rx_resync);
    ("no sync before a run start", test_rx_no_sync);
    ("another message replaces a stale stash", test_rx_stale_stash);
    ("run start flushes the stash", test_rx_run_flush);
    ("held retry limit consumes a BUSY", test_rx_held_limit);
    ("hold on first contact", test_rx_first_contact_hold);
    ("held REQUEST displaced by another message", test_rx_held_displaced) ]

let suites =
  [
    ( "proto.window",
      [
        Alcotest.test_case "cost-model window clamps" `Quick test_window_clamps;
        Alcotest.test_case "sequence space sizing" `Quick test_seq_space;
        Alcotest.test_case "client window helper" `Quick test_client_window;
        Helpers.qcheck prop_modular_roundtrip;
        Alcotest.test_case "wide window pipelines" `Quick test_window_pipelines;
        Alcotest.test_case "reordered arrivals parked and released" `Quick
          test_window_reorders_parked;
        Helpers.qcheck prop_window_invariants;
        Alcotest.test_case "AIMD and RTO unit laws" `Quick test_aimd_laws;
        Helpers.qcheck prop_rtt_converges;
        Alcotest.test_case "W=64 cwnd/rtt events bounded" `Quick test_cwnd_events_bounded;
        Alcotest.test_case "W=64 data wait behind a receive gap" `Quick
          test_data_wait_behind_gap;
        Alcotest.test_case "slot reuse across send eras" `Quick test_slot_reuse_stale_stash;
        Alcotest.test_case "W=64 replay after the numbers wrap" `Quick test_replay_after_wrap;
        Alcotest.test_case "W=1 data wait with the ACCEPT queued behind a BUSY cycle" `Quick
          test_data_wait_accept_queued;
        Alcotest.test_case "W=1 record outlives its queued dataless ACCEPT" `Quick
          test_record_outlives_queued_accept;
        Alcotest.test_case "bus refuses mismatched windows" `Quick
          test_window_mismatch_guard;
        Alcotest.test_case "long-busy hold converts to BUSY" `Quick
          test_long_busy_hold_nacks;
        Alcotest.test_case "W=4 ack past an unresolved CANCEL" `Quick
          (cancel_in_window ~busy:false);
        Alcotest.test_case "W=4 BUSY behind an unresolved CANCEL" `Quick
          (cancel_in_window ~busy:true);
        Alcotest.test_case "W=4 a CANCEL reply clears the slot refused behind it" `Quick
          test_refused_slot_cleared_on_cancel_reply;
        Alcotest.test_case "W=4 a refused last slot relaunches on a fresh number" `Quick
          test_refused_last_slot_relaunches_fresh;
      ] );
    ( "proto.recv_window",
      List.concat_map
        (fun (name, case) ->
          List.map
            (fun window ->
              Alcotest.test_case (Printf.sprintf "W=%d %s" window name) `Quick (case ~window))
            [ 1; 4; 64 ])
        rx_cases );
    ( "proto.send_window",
      [
        Alcotest.test_case "warm ack walk allocates nothing" `Quick
          test_ack_walk_allocates_nothing;
        Alcotest.test_case "W=4 on_done sends on the acking window" `Quick
          (ack_reentrant ~window:4 ~reentry:`Send ~uncovered:[]);
        Alcotest.test_case "W=4 on_done resolves a CANCEL behind the walk" `Quick
          (ack_reentrant ~window:4 ~reentry:`Cancel ~uncovered:[]);
        Alcotest.test_case "W=8 on_done starts a second ack walk" `Quick
          (ack_reentrant ~window:8 ~reentry:`Cancel ~uncovered:[ "E"; "F" ]);
        Alcotest.test_case "a reused window is a fresh one" `Quick test_reused_window_is_fresh;
        Alcotest.test_case "reuse refuses a window that is not quiet" `Quick
          test_reuse_refuses_busy_window;
        Alcotest.test_case "a reset ends every wait of the node's windows" `Quick
          test_reset_ends_every_wait;
      ] );
  ]
