(* Overload is not loss. Under many-to-one load a healthy server's
   requesters must never complete CRASHED: the transport may neither read
   its own bus queueing nor a busy server's hold as loss, and freed input
   buffer capacity must go to the peer that has waited longest. One
   scripted test per rule, then the incast runs that used to fail. *)

open Helpers
module Transport = Soda_proto.Transport
module Wire = Soda_proto.Wire
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic
module Frame = Soda_net.Frame
module Recorder = Soda_obs.Recorder
module Stats = Soda_sim.Stats

let patt = Pattern.well_known 0o655
let windowed = { Cost.default with Cost.window = 64; maxrequests = 65; aimd = true }

let quiet_callbacks =
  {
    Transport.deliver_request =
      (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Deliver);
    complete_request = (fun ~tid:_ _ -> ());
    advertised = (fun _ -> true);
    classify_unknown_tid = (fun _ -> `Stale);
  }

(* A transport at mid 0 on a fresh medium. *)
let transport ~seed =
  let engine = Engine.create ~seed () in
  let bus = Bus.create engine in
  let t = Transport.create ~engine ~bus ~mid:0 ~cost:windowed ~recorder:(Recorder.create ()) in
  (engine, bus, t)

let request ~src ~tid ~seq =
  Wire.encode
    {
      Wire.src;
      reliable = true;
      seq;
      ack = None;
      run = seq = 0;
      body =
        Wire.Request
          { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0; data = Bytes.empty;
            retry = false };
    }

let ack ~src ~seq =
  Wire.encode { Wire.src; reliable = false; seq = 0; ack = Some seq; run = false; body = Wire.Ack }

let submit t ~tid =
  Transport.submit_request t ~dst:1 ~tid ~pattern:patt ~arg:0 ~put_data:Bytes.empty ~get_size:0

(* Rule 1. Another station queues 20 large frames (about 160 ms of line
   time) just before our REQUEST, far more than its RTO. The first copy
   must reach the peer before any timer retransmission, and the next copy
   must come a whole retransmission interval after it: the timer counts
   from when the frame can start, not from when it was queued. *)
let test_backlog_not_loss () =
  let engine, bus, t = transport ~seed:3 in
  Transport.set_callbacks t quiet_callbacks;
  ignore (Transport.attach_nic t);
  let arrivals = ref [] and retx_at_first = ref (-1) in
  ignore
    (Nic.attach bus ~mid:1 ~rx:(fun ~src ~broadcast:_ ~ctx:_ payload ->
         match Wire.decode payload with
         | Ok { Wire.body = Wire.Request _; _ } when src = 0 ->
           if !arrivals = [] then
             retx_at_first := Stats.counter (Transport.stats t) "pkt.retransmissions.timer";
           arrivals := Engine.now engine :: !arrivals
         | Ok _ | Error _ -> ()));
  for _ = 1 to 20 do
    Bus.send bus ~src:2 ~dst:(Frame.To 1) (Bytes.make 1_000 'x')
  done;
  let backlog = Bus.backlog_us bus in
  submit t ~tid:1;
  ignore (Engine.run ~until:2_000_000 engine);
  let interval = windowed.Cost.retrans_interval_us in
  Alcotest.(check bool) "the backlog outlasts the RTO" true (backlog > 8 * interval);
  match List.rev !arrivals with
  | first :: second :: _ ->
    Alcotest.(check bool) "the first copy waited out the backlog" true (first >= backlog);
    Alcotest.(check int) "no timer retransmission before the first copy went out" 0
      !retx_at_first;
    Alcotest.(check bool) "the retransmission came a full interval later" true
      (second - first >= interval)
  | _ -> Alcotest.fail "the unacknowledged REQUEST was never retransmitted"

(* Rule 2. The scripted peer ignores the first two copies of REQUEST 1 and
   the first copy of REQUEST 2, acknowledging each next copy; REQUEST 3 is
   acked at once (a clean RTT sample) and REQUEST 4 loses its first copy
   again. REQUEST 2's first timer inherits REQUEST 1's backoff; the clean
   sample resets it, so REQUEST 4's timer is short again. *)
let test_backoff_persists () =
  let engine, bus, t = transport ~seed:5 in
  Transport.set_callbacks t quiet_callbacks;
  ignore (Transport.attach_nic t);
  let drops = [ (1, 2); (2, 1); (3, 0); (4, 1) ] in
  let copies = Hashtbl.create 4 in
  let peer = ref None in
  peer :=
    Some
      (Nic.attach bus ~mid:1 ~rx:(fun ~src ~broadcast:_ ~ctx:_ payload ->
           match Wire.decode payload with
           | Ok { Wire.body = Wire.Request { tid; _ }; seq; _ } when src = 0 ->
             let seen = Option.value (Hashtbl.find_opt copies tid) ~default:[] in
             Hashtbl.replace copies tid (Engine.now engine :: seen);
             if List.length seen >= List.assoc tid drops then
               Nic.send (Option.get !peer) ~dst:0 (ack ~src:1 ~seq)
           | Ok _ | Error _ -> ()));
  List.iteri
    (fun i (tid, _) ->
      Engine.schedule engine ~delay:(i * 100_000) (fun () -> submit t ~tid))
    drops;
  ignore (Engine.run ~until:450_000 engine);
  let first_gap tid =
    match List.rev (Hashtbl.find copies tid) with
    | a :: b :: _ -> b - a
    | _ -> Alcotest.failf "REQUEST %d was not retransmitted" tid
  in
  let interval = windowed.Cost.retrans_interval_us in
  let backed_off = float_of_int interval *. (windowed.Cost.retrans_backoff ** 2.0) in
  Alcotest.(check bool) "REQUEST 1's first timer is not backed off" true
    (float_of_int (first_gap 1) < backed_off);
  Alcotest.(check bool) "REQUEST 2's first timer keeps REQUEST 1's backoff" true
    (float_of_int (first_gap 2) >= backed_off);
  Alcotest.(check int) "REQUEST 3 was acked on its first copy" 1
    (List.length (Hashtbl.find copies 3));
  Alcotest.(check bool) "after the clean sample, REQUEST 4's timer is short again" true
    (float_of_int (first_gap 4) < backed_off)

(* Rule 3. The server's handler is busy and its one-slot input buffer is
   full, so six peers' REQUESTs are held in the order they arrive. Each
   time the handler frees, the buffered request goes to the handler and
   the longest holder takes the buffer: delivery follows arrival order,
   whatever order the connection table iterates in. *)
let test_holders_fifo () =
  let engine, bus, t = transport ~seed:7 in
  let busy = ref false and delivered = ref [] in
  Transport.set_callbacks t
    {
      quiet_callbacks with
      Transport.deliver_request =
        (fun ~src ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          if !busy then `Busy
          else begin
            busy := true;
            delivered := src :: !delivered;
            `Deliver
          end);
    };
  ignore (Transport.attach_nic t);
  let arrival_order = [ 1; 2; 9; 4; 7; 3; 8; 5 ] in
  List.iteri
    (fun i mid ->
      let nic = Nic.attach bus ~mid ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ _ -> ()) in
      Engine.schedule engine ~delay:(i * 5_000) (fun () ->
          Nic.send nic ~dst:0 (request ~src:mid ~tid:(100 + mid) ~seq:0)))
    arrival_order;
  List.iteri
    (fun i _ ->
      Engine.schedule engine ~delay:(100_000 + (i * 5_000)) (fun () ->
          busy := false;
          Transport.flush_buffered t))
    arrival_order;
  ignore (Engine.run ~until:200_000 engine);
  Alcotest.(check (list int)) "delivered in arrival order" arrival_order (List.rev !delivered)

(* The overload regression: incast at W=64 with AIMD onto one server whose
   handler accepts each SIGNAL at once. Every SIGNAL must complete OK; a
   CRASHED completion here is a false verdict, the server never fails. *)
let incast ~clients ~ops =
  let net, kernels = make_net ~seed:73 ~cost:windowed (clients + 1) in
  ignore
    (Sodal.attach (List.hd kernels)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let ok = ref 0 and failed = ref 0 in
  List.iter
    (fun kernel ->
      ignore
        (Sodal.attach kernel
           {
             Sodal.default_spec with
             task =
               (fun env ->
                 let sv = Sodal.server ~mid:0 ~pattern:patt in
                 let pending = ref 0 in
                 for _ = 1 to ops do
                   while !pending >= 8 do
                     Sodal.idle env
                   done;
                   let tid = Sodal.signal env sv ~arg:0 in
                   incr pending;
                   Sodal.on_completion_of env tid (fun c ->
                       decr pending;
                       if c.Sodal.status = Sodal.Comp_ok then incr ok else incr failed)
                 done;
                 while !pending > 0 do
                   Sodal.idle env
                 done;
                 Sodal.serve env);
           }))
    (List.tl kernels);
  run ~horizon:600.0 net;
  Alcotest.(check int) "no SIGNAL failed" 0 !failed;
  Alcotest.(check int) "every SIGNAL completed OK" (clients * ops) !ok

let suites =
  [
    ( "proto.overload",
      [
        Alcotest.test_case "bus backlog is not loss" `Quick test_backlog_not_loss;
        Alcotest.test_case "REQUEST backoff persists until a clean sample" `Quick
          test_backoff_persists;
        Alcotest.test_case "held peers are served in hold order" `Quick test_holders_fifo;
        Alcotest.test_case "incast 16 clients x 64 SIGNALs, none CRASHED" `Quick (fun () ->
            incast ~clients:16 ~ops:64);
        Alcotest.test_case "incast 64 clients x 32 SIGNALs, none CRASHED" `Quick (fun () ->
            incast ~clients:64 ~ops:32);
      ] );
  ]
