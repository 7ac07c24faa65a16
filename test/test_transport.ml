(* Protocol-level behaviour: reliability under loss, duplicate suppression,
   busy NACKs vs the pipelined input buffer, CANCEL semantics, probes and
   crash detection, Delta-t record lifecycle. *)

open Helpers
module Metrics = Soda_obs.Metrics
module Bus = Soda_net.Bus
module Event = Soda_obs.Event
module Recorder = Soda_obs.Recorder
module Transport = Soda_proto.Transport
module Wire = Soda_proto.Wire
module Nic = Soda_net.Nic

let patt = Pattern.well_known 0o711

let attach_echo kernel = ignore (echo_server ~reply:"ok" kernel patt)

let attach_sender kernel ~n ~record =
  ignore
    (Sodal.attach kernel
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to n do
               let into = Bytes.create 8 in
               let c = Sodal.b_exchange env sv ~arg:i (bytes_of_string "msg") ~into in
               record (i, c.Sodal.status, Bytes.sub_string into 0 c.Sodal.get_transferred)
             done);
       })

let test_reliable_under_loss () =
  let net, kernels = make_net ~seed:21 2 in
  Bus.set_loss_rate (Network.bus net) 0.25;
  attach_echo (List.nth kernels 0);
  let results = ref [] in
  attach_sender (List.nth kernels 1) ~n:10 ~record:(fun r -> results := r :: !results);
  run ~horizon:600.0 net;
  Alcotest.(check int) "all ten completed" 10 (List.length !results);
  List.iter
    (fun (_, status, data) ->
      Alcotest.(check bool) "status ok" true (status = Sodal.Comp_ok);
      Alcotest.(check string) "payload intact" "ok" data)
    !results;
  let stats = Kernel.stats (List.nth kernels 1) in
  Alcotest.(check bool) "retransmissions happened" true
    (Metrics.counter stats "pkt.retransmissions" > 0)

let test_exactly_once_under_loss () =
  (* Despite loss-induced retransmissions, each request is delivered to the
     server handler exactly once and in order. *)
  let net, kernels = make_net ~seed:33 2 in
  Bus.set_loss_rate (Network.bus net) 0.3;
  let k0 = List.nth kernels 0 in
  let seen = ref [] in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             seen := info.Sodal.arg :: !seen;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let completed = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to 12 do
               let c = Sodal.b_signal env sv ~arg:i in
               if c.Sodal.status = Sodal.Comp_ok then incr completed
             done);
       });
  run ~horizon:600.0 net;
  Alcotest.(check int) "all completed" 12 !completed;
  Alcotest.(check (list int)) "exactly once, in order"
    (List.init 12 (fun i -> i + 1))
    (List.rev !seen)

let test_corruption_recovered () =
  let net, kernels = make_net ~seed:5 2 in
  Bus.set_corruption_rate (Network.bus net) 0.2;
  attach_echo (List.nth kernels 0);
  let results = ref [] in
  attach_sender (List.nth kernels 1) ~n:5 ~record:(fun r -> results := r :: !results);
  run ~horizon:600.0 net;
  Alcotest.(check int) "all five completed despite CRC drops" 5 (List.length !results)

(* ---- frame ownership ----------------------------------------------------------- *)

(* Twelve 1,000-byte PUTs, three outstanding, to a server that computes
   20 ms before it accepts each: longer than a frame's transmission time,
   so a duplicated REQUEST arrives while its original's data still waits
   in its frame (a view), and later frames of the same size class are
   encoded and delivered meanwhile. A frame released while a view of it
   is held would be handed out again and overwritten before the kernel
   copies it. Returns the PUTs the server took intact, by index, in
   arrival order, and how many completed OK. *)
let same_length_puts ~seed ~fault =
  let net, kernels = make_net ~seed 2 in
  fault (Network.bus net);
  let n = 12 and bytes = 1_000 in
  let payload i = Bytes.init bytes (fun j -> Char.chr (((i * 31) + j) land 0xFF)) in
  let taken = ref [] and completed = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             Sodal.compute env 20_000;
             let into = Bytes.create info.Sodal.put_size in
             let status, got = Sodal.accept_current_put env ~arg:0 ~into in
             if status = Types.Accept_success && got = bytes
                && Bytes.equal into (payload info.Sodal.arg)
             then taken := info.Sodal.arg :: !taken);
       });
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let issued = ref 0 and finished = ref 0 in
             while !finished < n do
               while !issued < n && !issued - !finished < 3 do
                 let tid = Sodal.put env sv ~arg:!issued (payload !issued) in
                 incr issued;
                 Sodal.on_completion_of env tid (fun c ->
                     incr finished;
                     if c.Sodal.status = Sodal.Comp_ok then incr completed)
               done;
               Sodal.idle env
             done);
       });
  run ~horizon:600.0 net;
  Alcotest.(check int) "every frame went back to the pool once" 0
    (Soda_net.Pool.live (Bus.pool (Network.bus net)));
  (List.rev !taken, !completed)

let test_puts_intact_under_duplication () =
  let taken, completed =
    same_length_puts ~seed:21 ~fault:(fun bus -> Bus.duplicate_next ~count:40 bus)
  in
  Alcotest.(check int) "every PUT completed" 12 completed;
  Alcotest.(check (list int)) "each PUT's data taken intact, once, in order" (List.init 12 Fun.id)
    taken

let test_puts_intact_under_corruption () =
  let taken, completed =
    same_length_puts ~seed:22 ~fault:(fun bus -> Bus.set_corruption_rate bus 0.2)
  in
  Alcotest.(check int) "every PUT completed" 12 completed;
  Alcotest.(check (list int)) "each PUT's data taken intact, once, in order" (List.init 12 Fun.id)
    taken

(* ---- busy / pipelining ------------------------------------------------------- *)

(* A server whose handler is busy for [service_us] per request, so that
   back-to-back requests find it BUSY. *)
let slow_handler_server kernel ~service_us =
  ignore
    (Sodal.attach kernel
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             Sodal.compute env service_us;
             ignore (Sodal.accept_current_signal env ~arg:0));
       })

let stream_signals kernel ~n ~on_all_done =
  (* Keep up to MAXREQUESTS signals in flight so arrivals meet a busy
     handler. *)
  let completions = ref 0 in
  ignore
    (Sodal.attach kernel
       {
         Sodal.default_spec with
         on_completion = (fun _ _ -> incr completions);
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let issued = ref 0 in
             while !completions < n do
               while !issued < n && !issued - !completions < 3 do
                 ignore (Sodal.signal env sv ~arg:0);
                 incr issued
               done;
               Sodal.idle env
             done;
             on_all_done ());
       })

let test_busy_nacks_non_pipelined () =
  let cost = { Cost.non_pipelined with Cost.ack_grace_us = 500 } in
  let net, kernels = make_net ~seed:9 ~cost 2 in
  slow_handler_server (List.nth kernels 0) ~service_us:20_000;
  let done_ = ref false in
  stream_signals (List.nth kernels 1) ~n:6 ~on_all_done:(fun () -> done_ := true);
  run ~horizon:600.0 net;
  Alcotest.(check bool) "completed" true !done_;
  let stats = Kernel.stats (List.nth kernels 0) in
  Alcotest.(check bool) "busy nacks occurred" true (Metrics.counter stats "req.busy_nacked" > 0);
  Alcotest.(check int) "nothing buffered" 0 (Metrics.counter stats "req.buffered")

let test_pipelined_buffering () =
  let net, kernels = make_net ~seed:9 2 in
  (* default cost is pipelined *)
  slow_handler_server (List.nth kernels 0) ~service_us:20_000;
  let done_ = ref false in
  stream_signals (List.nth kernels 1) ~n:6 ~on_all_done:(fun () -> done_ := true);
  run ~horizon:600.0 net;
  Alcotest.(check bool) "completed" true !done_;
  let stats = Kernel.stats (List.nth kernels 0) in
  Alcotest.(check bool) "input buffer used" true (Metrics.counter stats "req.buffered" > 0)

(* A REQUEST held in the pipelined input buffer has already been acked.
   When the handler unadvertises before taking it, the server answers
   with ERROR(unadvertised); the requester must complete it UNADVERTISED
   at once, not wait for its probes to report a healthy server CRASHED. *)
let test_withdrawn_buffered_request ~window () =
  let cost = { Cost.default with Cost.window; maxrequests = max 3 (window + 1) } in
  let net, kernels = make_net ~seed:5 ~cost 2 in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             Sodal.compute env 20_000;
             Sodal.unadvertise env patt;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let outcomes = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to 2 do
               let tid = Sodal.signal env sv ~arg:i in
               Sodal.on_completion_of env tid (fun c ->
                   outcomes := (i, c.Sodal.status, Network.now net) :: !outcomes)
             done;
             while List.length !outcomes < 2 do
               Sodal.idle env
             done);
       });
  run ~horizon:5.0 net;
  match List.sort compare !outcomes with
  | [ (1, first, _); (2, second, at) ] ->
    Alcotest.(check bool) "first accepted" true (first = Sodal.Comp_ok);
    Alcotest.(check bool) "second UNADVERTISED, not CRASHED" true
      (second = Sodal.Comp_unadvertised);
    Alcotest.(check bool) "settled without waiting for probes" true (at < 100_000)
  | _ -> Alcotest.fail "both requests must complete"

(* ---- cancel ---------------------------------------------------------------------- *)

(* The requester's records of [tid]: whether its causal context is
   registered, and how many requests the transport counts as
   outstanding (its record of a request holds the get buffer too). *)
let records kernel tid =
  let tr = Kernel.transport kernel in
  (Transport.causal_ctx tr ~tid <> None, Transport.outstanding_requests tr)

(* A successful CANCEL leaves no record of the request behind: sampled
   before the CANCEL and a millisecond after it, while the client lives. *)
let check_cancel_forgotten sampled =
  match sampled with
  | None -> Alcotest.fail "the CANCEL was never issued"
  | Some ((ctx_before, before), (ctx_after, after)) ->
    Alcotest.(check bool) "the request had a causal context" true ctx_before;
    Alcotest.(check bool) "the cancelled request's causal context is gone" false ctx_after;
    Alcotest.(check int) "the cancelled request is no longer outstanding" (before - 1) after

let test_cancel_before_accept () =
  let net, kernels = make_net 2 in
  Recorder.set_causal (Network.recorder net) true;
  let k0 = List.nth kernels 0 in
  (* Server records the request but never accepts until told. *)
  let asker = ref None in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ info -> asker := Some info.Sodal.asker);
         task =
           (fun env ->
             while !asker = None do
               Sodal.idle env
             done;
             (* Give the client time to cancel, then try to accept. *)
             Sodal.compute env 300_000;
             let status = Sodal.accept_signal env (Option.get !asker) ~arg:0 in
             Alcotest.(check bool) "late accept sees CANCELLED" true
               (status = Types.Accept_cancelled));
       });
  let cancel_ok = ref false in
  let completion_seen = ref false and sampled = ref None in
  let k1 = List.nth kernels 1 in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         on_completion = (fun _ _ -> completion_seen := true);
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let tid = Sodal.signal env sv ~arg:0 in
             Sodal.compute env 100_000;
             let before = records k1 tid in
             cancel_ok := Sodal.cancel env tid;
             Sodal.compute env 1_000;
             sampled := Some (before, records k1 tid);
             Sodal.compute env 2_000_000);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "cancel succeeded" true !cancel_ok;
  Alcotest.(check bool) "no completion after successful cancel" false !completion_seen;
  check_cancel_forgotten !sampled

(* Window 1, non-pipelined: a CANCEL of a request that bounces BUSY kills
   it locally -- the server never took delivery -- and the connection
   stays usable. [on_wire]: the CANCEL is issued while the request is
   still on the wire, and succeeds as soon as the BUSY arrives instead of
   waiting out the retries; otherwise it is issued inside the backoff. *)
let cancel_busy_request ~on_wire () =
  let cost = { Cost.non_pipelined with Cost.window = 1 } in
  let net, kernels = make_net ~seed:11 ~cost 2 in
  Recorder.set_causal (Network.recorder net) true;
  let seen = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             seen := info.Sodal.arg :: !seen;
             Sodal.compute env 50_000;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let cancel_ok = ref false and cancelled_completed = ref false and last = ref None in
  let cancel_us = ref 0 and sampled = ref None in
  let k1 = List.nth kernels 1 in
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let first = Sodal.signal env sv ~arg:1 in
             Sodal.swallow_completion env first;
             (* the handler is busy with arg 1: arg 2 bounces BUSY *)
             Sodal.compute env 10_000;
             let second = Sodal.signal env sv ~arg:2 in
             Sodal.on_completion_of env second (fun _ -> cancelled_completed := true);
             let stats = Kernel.stats (List.nth kernels 1) in
             if not on_wire then
               while Metrics.counter stats "req.busy_received" = 0 do
                 Sodal.compute env 100
               done;
             let before = records k1 second in
             let t0 = Sodal.now env in
             cancel_ok := Sodal.cancel env second;
             cancel_us := Sodal.now env - t0;
             Sodal.compute env 1_000;
             sampled := Some (before, records k1 second);
             let c = Sodal.b_signal env sv ~arg:3 in
             last := Some c.Sodal.status);
       });
  run ~horizon:5.0 net;
  Alcotest.(check bool) "cancel succeeded" true !cancel_ok;
  Alcotest.(check bool) "no completion after successful cancel" false !cancelled_completed;
  Alcotest.(check (list int)) "the handler never saw the cancelled request" [ 1; 3 ]
    (List.rev !seen);
  Alcotest.(check bool) "next request completes OK" true (!last = Some Sodal.Comp_ok);
  Alcotest.(check bool) "cancel resolved within one round trip" true (!cancel_us < 10_000);
  check_cancel_forgotten !sampled

let test_cancel_after_completion_fails () =
  let net, kernels = make_net 2 in
  attach_echo (List.nth kernels 0);
  let cancel_ok = ref true in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let c = Sodal.b_signal env sv ~arg:0 in
             Alcotest.(check bool) "completed" true (c.Sodal.status = Sodal.Comp_ok);
             cancel_ok := Sodal.cancel env c.Sodal.tid);
       });
  run net;
  Alcotest.(check bool) "cancel after completion fails" false !cancel_ok

(* ---- server transactions, packet by packet ------------------------------------------ *)

(* A server transport at mid 0 (W=1, pipelined input buffer) and a
   scripted requester station at mid 1 that sends raw frames and keeps
   every packet the server sends it. The server's handler takes a
   REQUEST when it is free, and is then busy until the test frees it. *)
type scripted = {
  engine : Engine.t;
  server : Transport.t;
  peer : Nic.t;
  busy : bool ref;
  delivered : int list ref;  (* tids handed to the handler, latest first *)
  heard : Wire.rx list ref;  (* packets the station received, latest first *)
}

let scripted () =
  let engine = Engine.create ~seed:3 () in
  let bus = Bus.create engine in
  let server =
    Transport.create ~engine ~bus ~mid:0 ~cost:Cost.default ~recorder:(Recorder.create ())
  in
  let busy = ref false and delivered = ref [] and heard = ref [] in
  Transport.set_callbacks server
    {
      Transport.deliver_request =
        (fun ~src:_ ~tid ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ ->
          if !busy then `Busy
          else begin
            busy := true;
            delivered := tid :: !delivered;
            `Deliver
          end);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> true);
      classify_unknown_tid = (fun _ -> `Stale);
    };
  ignore (Transport.attach_nic server);
  let peer =
    Nic.attach bus ~mid:1 ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
        match Wire.decode payload with Ok p -> heard := p :: !heard | Error _ -> ())
  in
  { engine; server; peer; busy; delivered; heard }

(* The station sends one packet and the server has 10 ms to act on it. *)
let send ?(run = false) s ~reliable ~seq ~ack body =
  Nic.send s.peer ~dst:0 (Wire.encode { Wire.src = 1; reliable; seq; ack; run; body });
  ignore (Engine.run_for s.engine ~duration:10_000)

let send_request ?run s ~seq tid =
  send ?run s ~reliable:true ~seq ~ack:None
    (Wire.Request
       { tid; pattern = patt; arg = 0; put_size = 0; get_size = 0; data = Bytes.empty;
         retry = false })

let send_cancel s ~seq tid = send s ~reliable:true ~seq ~ack:None (Wire.Cancel_request { tid })

(* The [ok] of every CANCEL reply the station heard for [tid], in order. *)
let cancel_replies s tid =
  List.rev
    (List.filter_map
       (fun p ->
         match p.Wire.body with
         | Wire.Cancel_reply { tid = t; ok } when t = tid -> Some ok
         | _ -> None)
       !(s.heard))

let heard_busy s =
  List.exists (fun p -> match p.Wire.body with Wire.Busy _ -> true | _ -> false) !(s.heard)

(* The handler is freed and the server offers it the input buffer. *)
let free_handler s =
  s.busy := false;
  Transport.flush_buffered s.server;
  ignore (Engine.run_for s.engine ~duration:10_000)

(* A CANCEL of a REQUEST waiting in the pipelined input buffer is
   granted and frees the buffer: the handler never sees the cancelled
   REQUEST, and the next one that meets the busy handler is buffered in
   its place rather than refused. *)
let test_cancel_buffered () =
  let s = scripted () in
  send_request s ~seq:0 101;
  send_request s ~seq:1 102;
  Alcotest.(check (list int)) "the first REQUEST reached the handler" [ 101 ] !(s.delivered);
  Alcotest.(check int) "the second waits in the input buffer" 1
    (Metrics.counter (Transport.stats s.server) "req.buffered");
  send_cancel s ~seq:0 102;
  Alcotest.(check (list bool)) "CANCEL granted" [ true ] (cancel_replies s 102);
  free_handler s;
  Alcotest.(check (list int)) "the handler never sees the cancelled REQUEST" [ 101 ]
    !(s.delivered);
  s.busy := true;
  send_request s ~seq:1 103;
  Alcotest.(check bool) "the freed buffer takes the next REQUEST, no BUSY" false (heard_busy s);
  free_handler s;
  Alcotest.(check (list int)) "which the handler gets next" [ 103; 101 ] !(s.delivered)

(* A copy of a REQUEST whose transaction the server still holds is not
   taken again. The server's connection record for the requester expires
   while txn 101 waits, handed to the handler and not accepted; the same
   REQUEST then comes again, run-flagged as a requester's retransmission
   after its own record expired would be (a fresh record drops an
   unflagged body as No_sync). It is consumed and acked, counted, and
   the handler, freed, is never offered it: the transaction reaches the
   kernel once and its ACCEPT reports once. *)
let test_second_take_refused () =
  let s = scripted () in
  send_request s ~seq:0 101;
  Alcotest.(check (list int)) "the REQUEST reached the handler" [ 101 ] !(s.delivered);
  ignore (Engine.run_for s.engine ~duration:(Cost.record_expiry_us Cost.default + 10_000));
  Alcotest.(check int) "the connection record expired" 1
    (Metrics.counter (Transport.stats s.server) "deltat.records_expired");
  s.heard := [];
  send_request ~run:true s ~seq:0 101;
  free_handler s;
  Alcotest.(check (list int)) "the copy never reaches the handler" [ 101 ] !(s.delivered);
  Alcotest.(check bool) "the copy is acked" true
    (List.exists (fun p -> p.Wire.ack = Some 0) !(s.heard));
  Alcotest.(check int) "one second take refused" 1
    (Metrics.counter (Transport.stats s.server) "req.retake_refused");
  let reports = ref 0 in
  Transport.accept s.server ~requester_mid:1 ~requester_tid:101 ~arg:0 ~get_capacity:0
    ~data_out:Bytes.empty ~on_done:(fun _ -> incr reports);
  ignore (Engine.run_for s.engine ~duration:10_000);
  let seq =
    List.find_map
      (fun p ->
        match p.Wire.body with Wire.Accept { tid = 101; _ } -> Some p.Wire.seq | _ -> None)
      !(s.heard)
  in
  Alcotest.(check bool) "the ACCEPT went out" true (seq <> None);
  send s ~reliable:false ~seq:0 ~ack:seq Wire.Ack;
  Alcotest.(check int) "and reports once" 1 !reports

(* A second CANCEL of a cancelled transaction (a new message, not a
   duplicate) is granted again; the transaction stays cancelled, so an
   ACCEPT of it is refused and a probe hears it is not alive. *)
let test_cancel_repeated () =
  let s = scripted () in
  send_request s ~seq:0 101;
  send_cancel s ~seq:1 101;
  send_cancel s ~seq:0 101;
  Alcotest.(check (list bool)) "both CANCELs granted" [ true; true ] (cancel_replies s 101);
  Alcotest.(check int) "two grants counted" 2
    (Metrics.counter (Transport.stats s.server) "cancel.granted");
  let outcome = ref None in
  Transport.accept s.server ~requester_mid:1 ~requester_tid:101 ~arg:0 ~get_capacity:0
    ~data_out:Bytes.empty ~on_done:(fun o -> outcome := Some o);
  Alcotest.(check bool) "an ACCEPT of it is cancelled" true
    (!outcome = Some Transport.Acc_cancelled);
  send s ~reliable:false ~seq:0 ~ack:None (Wire.Probe { tid = 101 });
  Alcotest.(check bool) "a probe hears it is not alive" true
    (List.exists
       (fun p ->
         match p.Wire.body with Wire.Probe_reply { tid = 101; alive } -> not alive | _ -> false)
       !(s.heard))

(* An ACCEPT of a transaction the server holds no record of goes out
   blind (§3.3.2 rule 6); when the requester acks it instead of
   answering with an ERROR, the accepter reads CANCELLED. *)
let test_blind_accept_acked () =
  let s = scripted () in
  let outcome = ref None in
  Transport.accept s.server ~requester_mid:1 ~requester_tid:555 ~arg:9 ~get_capacity:0
    ~data_out:Bytes.empty ~on_done:(fun o -> outcome := Some o);
  ignore (Engine.run_for s.engine ~duration:10_000);
  let seq =
    match
      List.find_map
        (fun p ->
          match p.Wire.body with
          | Wire.Accept { tid = 555; arg = 9; _ } -> Some p.Wire.seq
          | _ -> None)
        !(s.heard)
    with
    | Some seq -> seq
    | None -> Alcotest.fail "the blind ACCEPT never reached the requester"
  in
  Alcotest.(check bool) "nothing reported before the ack" true (!outcome = None);
  send s ~reliable:false ~seq:0 ~ack:(Some seq) Wire.Ack;
  Alcotest.(check bool) "acked blind ACCEPT reads CANCELLED" true
    (!outcome = Some Transport.Acc_cancelled)

(* A CANCEL that reaches the server after its handler began the ACCEPT
   is refused, and the requester completes normally. The client cancels
   as soon as the server's handler traps into the ACCEPT; the REQUEST's
   ack is still held to ride the ACCEPT, so the CANCEL goes out once the
   ACCEPT's piggybacked ack arrives, just before the ACCEPT itself
   completes the request. *)
let test_cancel_after_accept () =
  let net, kernels = make_net 2 in
  let accepting = ref false in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             accepting := true;
             ignore (Sodal.accept_current_signal env ~arg:5));
       });
  let cancel_ok = ref None and completion = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let tid = Sodal.signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             Sodal.on_completion_of env tid (fun c -> completion := Some (c.Sodal.status, c.Sodal.reply_arg));
             while not !accepting do
               Sodal.compute env 100
             done;
             cancel_ok := Some (Sodal.cancel env tid);
             Sodal.compute env 100_000);
       });
  run ~horizon:5.0 net;
  Alcotest.(check (option bool)) "CANCEL refused" (Some false) !cancel_ok;
  Alcotest.(check int) "refused by the server" 1
    (Metrics.counter (Kernel.stats (List.nth kernels 0)) "cancel.refused");
  Alcotest.(check bool) "the request completed normally" true
    (!completion = Some (Sodal.Comp_ok, 5))

(* A second ACCEPT of one request, after the first succeeded, reads
   CANCELLED and sends nothing. *)
let test_double_accept () =
  let net, kernels = make_net 2 in
  let asker = ref None and statuses = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ info -> asker := Some info.Sodal.asker);
         task =
           (fun env ->
             while !asker = None do
               Sodal.idle env
             done;
             let asker = Option.get !asker in
             let accepts_sent () =
               Metrics.counter (Kernel.stats (List.nth kernels 0)) "pkt.sent.ACCEPT"
             in
             let first = Sodal.accept_signal env asker ~arg:1 in
             let sent = accepts_sent () in
             let second = Sodal.accept_signal env asker ~arg:2 in
             statuses := [ first; second ];
             Alcotest.(check int) "the first ACCEPT was sent once" 1 sent;
             Alcotest.(check int) "the second sends nothing" sent (accepts_sent ()));
       });
  let completion = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             completion := Some (c.Sodal.status, c.Sodal.reply_arg));
       });
  run ~horizon:5.0 net;
  Alcotest.(check bool) "first ACCEPT succeeds, second is CANCELLED" true
    (!statuses = [ Types.Accept_success; Types.Accept_cancelled ]);
  Alcotest.(check bool) "the requester sees the first" true
    (!completion = Some (Sodal.Comp_ok, 1))

(* ---- requester transactions, packet by packet ---------------------------------------- *)

(* A requester transport at mid 1 (W=1) and scripted server stations at
   mids 0 and 2 that send raw frames and keep every packet they hear.
   The stations answer every probe "alive", so no probe verdict ends a
   request here. The requester's completions and CANCEL answers land in
   one log, in the order they were reported. *)
type requester = {
  clock : Engine.t;
  medium : Bus.t;
  client : Transport.t;
  stations : (int * Nic.t) list;  (* by mid *)
  got : (int * Wire.rx) list ref;  (* (station mid, packet) heard, latest first *)
  log : string list ref;  (* latest first *)
}

let describe = function
  | Transport.Comp_accepted _ -> "accepted"
  | Comp_unadvertised -> "unadvertised"
  | Comp_crashed -> "crashed"
  | Comp_discovered { mids; _ } -> "discovered " ^ String.concat "," (List.map string_of_int mids)

let requester ?(recorder = Recorder.create ()) () =
  let clock = Engine.create ~seed:5 () in
  let medium = Bus.create clock in
  let client = Transport.create ~engine:clock ~bus:medium ~mid:1 ~cost:Cost.default ~recorder in
  let got = ref [] and log = ref [] in
  Transport.set_callbacks client
    {
      Transport.deliver_request = (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Busy);
      complete_request =
        (fun ~tid c -> log := Printf.sprintf "%d %s" tid (describe c) :: !log);
      advertised = (fun _ -> false);
      classify_unknown_tid = (fun _ -> `Completed);
    };
  ignore (Transport.attach_nic client);
  let station mid =
    let nic = ref None in
    let n =
      Nic.attach medium ~mid ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
          match Wire.decode payload with
          | Ok p ->
            got := (mid, p) :: !got;
            (match p.Wire.body with
             | Wire.Probe { tid } ->
               Nic.send (Option.get !nic) ~dst:1
                 (Wire.encode
                    { Wire.src = mid; reliable = false; seq = 0; ack = None; run = false;
                      body = Wire.Probe_reply { tid; alive = true } })
             | _ -> ())
          | Error _ -> ())
    in
    nic := Some n;
    n
  in
  { clock; medium; client; stations = [ (0, station 0); (2, station 2) ]; got; log }

let advance r us = ignore (Engine.run_for r.clock ~duration:us)

(* Station [from] sends one packet to the requester, which has 10 ms to
   act on it. *)
let say r ~from ?(reliable = false) ?ack body =
  Nic.send (List.assoc from r.stations) ~dst:1
    (Wire.encode { Wire.src = from; reliable; seq = 0; ack; run = false; body });
  advance r 10_000

(* The requester submits REQUEST [tid] to mid 0; unless [unacked], mid 0
   acks it, so the request is delivered. *)
let submit ?(unacked = false) ?(put = "") r tid =
  Transport.submit_request r.client ~dst:0 ~tid ~pattern:patt ~arg:0
    ~put_data:(Bytes.of_string put) ~get_buffer:Bytes.empty;
  advance r 10_000;
  let seq =
    List.find_map
      (function
        | 0, { Wire.body = Wire.Request { tid = t; _ }; seq; _ } when t = tid -> Some seq
        | _ -> None)
      !(r.got)
  in
  match seq with
  | None -> Alcotest.fail "the REQUEST never reached mid 0"
  | Some seq -> if not unacked then say r ~from:0 ~ack:seq Wire.Ack

let accept_from r ~from ?(need_put_data = false) ?(put_transferred = 0) tid ~arg =
  say r ~from ~reliable:true
    (Wire.Accept { tid; arg; put_transferred; need_put_data; data = Bytes.empty })

let cancel_into_log r tid =
  Transport.cancel r.client ~tid ~on_done:(fun ok ->
      r.log := Printf.sprintf "cancel %b" ok :: !(r.log))

let heard_by r mid f = List.filter_map (fun (m, p) -> if m = mid then f p.Wire.body else None) !(r.got)

(* Rule 6 of §3.3.2: only the addressed server may accept. An ACCEPT
   from another server is refused CANCELLED and completes nothing; the
   request still completes from its real server. *)
let test_foreign_accept () =
  let r = requester () in
  submit r 7;
  accept_from r ~from:2 7 ~arg:5;
  Alcotest.(check (list string)) "the foreign ACCEPT completes nothing" [] !(r.log);
  Alcotest.(check (list bool)) "and is refused CANCELLED" [ true ]
    (heard_by r 2 (function
      | Wire.Error { tid = 7; code } -> Some (code = Wire.Err_cancelled)
      | _ -> None));
  accept_from r ~from:0 7 ~arg:9;
  Alcotest.(check (list string)) "the real server's ACCEPT completes it" [ "7 accepted" ] !(r.log);
  Alcotest.(check int) "nothing outstanding" 0 (Transport.outstanding_requests r.client);
  Alcotest.(check int) "the real server hears no ERROR" 0
    (List.length (heard_by r 0 (function Wire.Error _ -> Some () | _ -> None)))

(* The ACCEPT asks for the put data again (it was wasted on a busy
   transmission); the server never acks the resent data, so its send
   times out and the request completes CRASHED. *)
let test_resent_put_data_times_out () =
  let r = requester () in
  submit ~put:"abc" r 8;
  accept_from r ~from:0 ~need_put_data:true ~put_transferred:2 8 ~arg:1;
  Alcotest.(check (list string)) "not complete while the data is unacked" [] !(r.log);
  advance r 2_000_000;
  Alcotest.(check (list string)) "the data's timeout completes it CRASHED" [ "8 crashed" ]
    !(r.log);
  Alcotest.(check bool) "the data was resent, cut to what the server takes" true
    (List.mem "ab" (heard_by r 0 (function
       | Wire.Put_data { tid = 8; data } -> Some (Helpers.string_of_view data)
       | _ -> None)));
  Alcotest.(check int) "counted once" 1
    (Metrics.counter (Transport.stats r.client) "req.data_resend")

(* A CANCEL of a delivered request goes to the server; when the server
   never answers it, the CANCEL times out: the request completes
   CRASHED, and then the CANCEL reports false. *)
let test_remote_cancel_times_out () =
  let r = requester () in
  submit r 9;
  cancel_into_log r 9;
  advance r 10_000;
  Alcotest.(check int) "the CANCEL went to the server" 1
    (List.length (heard_by r 0 (function Wire.Cancel_request { tid = 9 } -> Some () | _ -> None)));
  Alcotest.(check (list string)) "no answer yet" [] !(r.log);
  advance r 2_000_000;
  Alcotest.(check (list string)) "CRASHED, then the CANCEL fails" [ "9 crashed"; "cancel false" ]
    (List.rev !(r.log));
  Alcotest.(check int) "nothing outstanding" 0 (Transport.outstanding_requests r.client)

(* §3.3.3: a CANCEL issued while the REQUEST is on the wire waits for
   its ack; an ACCEPT that arrives first wins the race. The CANCEL
   reports false, never goes out, and the completion is the normal one. *)
let test_pending_cancel_loses () =
  let r = requester () in
  submit ~unacked:true r 10;
  cancel_into_log r 10;
  Alcotest.(check (list string)) "the CANCEL waits" [] !(r.log);
  accept_from r ~from:0 10 ~arg:4;
  Alcotest.(check (list string)) "the CANCEL fails, then the request completes"
    [ "cancel false"; "10 accepted" ] (List.rev !(r.log));
  Alcotest.(check int) "no CANCEL went out" 0
    (List.length (heard_by r 0 (function Wire.Cancel_request _ -> Some () | _ -> None)))

(* DISCOVER collects the mids that answer within its window: a reply the
   bus duplicates counts once, and one after the window changes nothing. *)
let test_discover_replies () =
  let r = requester () in
  Transport.submit_discover r.client ~tid:11 ~pattern:patt ~get_buffer:(Bytes.create 8);
  advance r 5_000;
  Alcotest.(check int) "both stations heard the broadcast" 2
    (List.length
       (List.filter (fun (_, p) -> match p.Wire.body with Wire.Discover _ -> true | _ -> false)
          !(r.got)));
  Bus.duplicate_next r.medium;
  say r ~from:0 (Wire.Discover_reply { tid = 11 });
  say r ~from:2 (Wire.Discover_reply { tid = 11 });
  Alcotest.(check int) "outstanding until the window ends" 1
    (Transport.outstanding_requests r.client);
  advance r 20_000;
  Alcotest.(check (list string)) "each mid once, in reply order" [ "11 discovered 0,2" ] !(r.log);
  say r ~from:2 (Wire.Discover_reply { tid = 11 });
  Alcotest.(check (list string)) "a late reply changes nothing" [ "11 discovered 0,2" ] !(r.log);
  Alcotest.(check int) "nothing outstanding" 0 (Transport.outstanding_requests r.client)

(* A traced DISCOVER's span closes when its window does: the requester
   emits its [complete] event, status Discovered, forgets the span's
   causal context and samples its latency, as for any other completed
   request. *)
let test_discover_completes_span () =
  let recorder = Recorder.create ~tracing:true () in
  Recorder.set_causal recorder true;
  let r = requester ~recorder () in
  Transport.register_causal r.client ~tid:11 (Option.get (Recorder.mint_root recorder));
  Transport.submit_discover r.client ~tid:11 ~pattern:patt ~get_buffer:(Bytes.create 8);
  advance r 5_000;
  say r ~from:2 (Wire.Discover_reply { tid = 11 });
  let completes () =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Complete { tid; status } -> Some (tid, status, e.Event.ctx <> None)
        | _ -> None)
      (Recorder.events recorder)
  in
  Alcotest.(check int) "no complete event inside the window" 0 (List.length (completes ()));
  advance r 20_000;
  Alcotest.(check (list string)) "the DISCOVER completed" [ "11 discovered 2" ] !(r.log);
  Alcotest.(check bool) "one complete event, Discovered, in the DISCOVER's span" true
    (completes () = [ (11, Event.Discovered, true) ]);
  Alcotest.(check bool) "the span's context is forgotten" true
    (Transport.causal_ctx r.client ~tid:11 = None);
  Alcotest.(check (pair int int)) "one latency sample, the window" (1, Cost.default.Cost.discover_window_us)
    (match Metrics.histogram (Transport.stats r.client) "req.latency_us" with
     | Some h -> (Metrics.Histogram.count h, Metrics.Histogram.max_value h)
     | None -> (0, 0))

(* ---- crash semantics --------------------------------------------------------------- *)

let test_request_to_silent_node_crashes () =
  (* Node 0 exists but its client never advertises; node 5 doesn't exist at
     all: requests to it exhaust retransmissions and report CRASHED. *)
  let net, kernels = make_net 2 in
  let status = ref Sodal.Comp_ok in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:5 ~pattern:patt in
             let c = Sodal.b_signal env sv ~arg:0 in
             status := c.Sodal.status);
       });
  ignore (List.nth kernels 0);
  run ~horizon:600.0 net;
  Alcotest.(check bool) "CRASHED" true (!status = Sodal.Comp_crashed)

let test_probe_detects_server_crash () =
  (* The request is delivered (acknowledged) but the server crashes before
     accepting: the probe machinery must report CRASHED (§3.6.2). *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ _ -> ());
       });
  ignore
    (Network.engine net
     |> fun e -> Soda_sim.Engine.schedule e ~delay:500_000 (fun () -> Kernel.crash k0));
  let status = ref Sodal.Comp_ok in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             status := c.Sodal.status);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "probe reported CRASHED" true (!status = Sodal.Comp_crashed)

(* A hardware crash while every fixed-delay line of the node holds
   entries: frames waiting out their packet CPU on the way out and on the
   way in, a probe of a request the node is waiting on, and the GC of a
   record it served. None of the queued frames may reach the bus once the
   node is down, and the node must work again after its quarantine. *)
let test_crash_with_queued_lines () =
  let net, kernels = make_net ~seed:5 ~trace:true 4 in
  let k = Array.of_list kernels in
  let victim = 1 and slow = Pattern.well_known 0o712 in
  ignore (echo_server ~reply:"ok" k.(0) patt);
  (* mid 3 takes requests for [slow] and never accepts: the victim's
     request to it sits delivered, probed every interval *)
  ignore
    (Sodal.attach k.(3)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env slow);
         on_request = (fun _ _ -> ());
       });
  (* the victim serves [patt] while its task waits on mid 3 *)
  ignore
    (Sodal.attach k.(victim)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             ignore
               (Sodal.accept_current_exchange env ~arg:0 ~into:(Bytes.create 4)
                  ~data:(bytes_of_string "ok")));
         task = (fun env -> ignore (Sodal.b_signal env (Sodal.server ~mid:3 ~pattern:slow) ~arg:0));
       });
  let stop = ref false in
  ignore
    (Sodal.attach k.(2)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:victim ~pattern:patt in
             while not !stop do
               ignore (Sodal.b_exchange env sv ~arg:0 (bytes_of_string "hi") ~into:(Bytes.create 4))
             done);
       });
  let lines () = Transport.delay_lines (Kernel.transport k.(victim)) in
  let all_queued () =
    List.for_all (fun name -> List.assoc name (lines ()) > 0) [ "tx"; "rx"; "probe"; "gc" ]
  in
  let engine = Network.engine net in
  while (not (all_queued ())) && Engine.now engine < 60_000_000 do
    ignore (Network.run_for net ~duration:50)
  done;
  Alcotest.(check bool) "every line holds entries at the crash" true (all_queued ());
  Kernel.crash k.(victim);
  Alcotest.(check (list (pair string int)))
    "the crash empties every line"
    (List.map (fun (name, _) -> (name, 0)) (lines ()))
    (lines ());
  stop := true;
  let crashed_at = Engine.now engine in
  let quarantine = Cost.crash_quarantine_us (Kernel.cost k.(victim)) in
  ignore (Network.run_for net ~duration:quarantine);
  let frames_from_victim =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Bus_frame { src; _ } -> src = victim && e.Event.time_us >= crashed_at
        | _ -> false)
      (Recorder.events (Network.recorder net))
  in
  Alcotest.(check int) "no frame of the old incarnation on the bus" 0
    (List.length frames_from_victim);
  let status = ref None in
  ignore
    (Sodal.attach k.(victim)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let c =
               Sodal.b_exchange env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                 (bytes_of_string "hi") ~into:(Bytes.create 4)
             in
             status := Some c.Sodal.status);
       });
  run ~horizon:(float_of_int (Engine.now engine) /. 1e6 +. 60.0) net;
  Alcotest.(check bool) "the rebooted node completes a request" true
    (!status = Some Sodal.Comp_ok)

let test_stale_accept_after_requester_death () =
  (* Requester dies after its request is delivered; the server's eventual
     ACCEPT must fail CRASHED (§3.6.1). *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let k1 = List.nth kernels 1 in
  let accept_status = ref Types.Accept_success in
  let asker = ref None in
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ info -> asker := Some info.Sodal.asker);
         task =
           (fun env ->
             while !asker = None do
               Sodal.idle env
             done;
             Sodal.compute env 2_000_000;
             accept_status :=
               Sodal.accept_get env (Option.get !asker) ~arg:0
                 ~data:(bytes_of_string "too late");
             Sodal.serve env);
       });
  ignore
    (Sodal.attach k1
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (* A GET, so the server's accept carries data and must await
                the (dead) requester's acknowledgement. *)
             ignore
               (Sodal.get env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                  ~into:(Bytes.create 16));
             Sodal.compute env 500_000;
             Sodal.die env);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "stale accept crashed" true (!accept_status = Types.Accept_crashed)

(* ---- acknowledgement holds (§5.2.3) ----------------------------------------------- *)

(* An ACCEPT that carries data blocks its accepter until it is acked, so
   the requester holds that ack only for its own turnaround (the
   kernel->client copy, then the trap and context switch of a next
   request that would carry it) and 1 us, with no grace window on top.
   Here the requester issues nothing more, so the ack leaves alone,
   exactly that hold after the ACCEPT is consumed. With the 2 ms grace
   window on top instead of the 1 us, the ack left 1,999 us later, the
   server's ack wait was 7,458 us and its [accept_get] returned at
   12,469 us. *)
let test_get_accept_ack_hold () =
  let words = 10 in
  let bytes = words * Cost.default.Cost.word_bytes in
  let net, kernels = make_net ~trace:true 2 in
  let asker = ref None in
  let accept_return = ref None in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ info -> asker := Some info.Sodal.asker);
         task =
           (fun env ->
             while !asker = None do
               Sodal.idle env
             done;
             let st =
               Sodal.accept_get env (Option.get !asker) ~arg:0 ~data:(Bytes.make bytes 'g')
             in
             accept_return := Some (st, Sodal.now env));
       });
  let got = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let c =
               Sodal.b_get env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                 ~into:(Bytes.create bytes)
             in
             got := c.Sodal.get_transferred);
       });
  run ~horizon:10.0 net;
  Alcotest.(check int) "all data arrived" bytes !got;
  let events = Recorder.events (Network.recorder net) in
  let at mid ev =
    List.filter_map
      (fun e -> if e.Event.mid = mid && ev e.Event.kind then Some e.Event.time_us else None)
      events
  in
  let consumed =
    match at 1 (function Event.Rx { pkt = Event.P_accept; _ } -> true | _ -> false) with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one ACCEPT at the requester, saw %d" (List.length l)
  in
  let acked =
    match at 1 (function Event.Tx { pkt = Event.P_ack; _ } -> true | _ -> false) with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one standalone ACK, saw %d" (List.length l)
  in
  let c = Cost.default in
  Alcotest.(check int) "ack held for copy + trap + context switch (1,100 us) + 1 us"
    (Cost.data_copy_us c ~bytes + c.Cost.request_trap_us + c.Cost.context_switch_us + 1)
    (acked - consumed);
  (match !accept_return with
   | Some (st, ret) ->
     Alcotest.(check bool) "accept_get succeeded" true (st = Types.Accept_success);
     Alcotest.(check int) "accept_get returns 1,999 us before the grace-window time"
       (12_469 - 1_999) ret
   | None -> Alcotest.fail "accept_get never returned");
  match Metrics.histogram (Kernel.stats (List.nth kernels 0)) "accept.ack_wait_us" with
  | Some h ->
    let module H = Soda_obs.Metrics.Histogram in
    Alcotest.(check int) "one data-bearing ACCEPT acked" 1 (H.count h);
    Alcotest.(check int) "its ack came 1,999 us sooner too" (7_458 - 1_999) (H.max_value h)
  | None -> Alcotest.fail "no accept.ack_wait_us histogram"

(* Refinement 2 of the paper's pipelined GET: with requests kept in
   flight back to back, every ACCEPT's ack rides the client's next
   REQUEST, so a GET costs two packets and no ack goes alone, whatever
   the size of the returned data. *)
let test_get_stream_two_packets ~words () =
  let bytes = words * Cost.default.Cost.word_bytes in
  let n = 40 and outstanding = 3 in
  let net, kernels = make_net 2 in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env _ ->
             ignore (Sodal.accept_current_get env ~arg:0 ~data:(Bytes.make bytes 'g')));
       });
  let both name =
    List.fold_left (fun acc k -> acc + Metrics.counter (Kernel.stats k) name) 0 kernels
  in
  (* packets sent and standalone acks, read at the last completion: the
     last ACCEPT's ack has no next REQUEST to ride *)
  let last = ref (0, 0) in
  let completed = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         on_completion =
           (fun _ c ->
             if c.Sodal.status = Sodal.Comp_ok then incr completed;
             if !completed = n then
               last := (both "pkt.sent.total", both "pkt.standalone_acks"));
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let issued = ref 0 in
             while !completed < n do
               while !issued < n && !issued - !completed < outstanding do
                 ignore (Sodal.get env sv ~arg:0 ~into:(Bytes.create bytes));
                 incr issued
               done;
               Sodal.idle env
             done);
       });
  run ~horizon:60.0 net;
  Alcotest.(check int) "all GETs completed" n !completed;
  let sent, alone = !last in
  Alcotest.(check int) "2 packets per GET" (2 * n) sent;
  Alcotest.(check int) "no standalone ack" 0 alone

(* ---- delta-t record lifecycle ------------------------------------------------------- *)

let test_deltat_record_expiry () =
  let net, kernels = make_net ~trace:true 2 in
  attach_echo (List.nth kernels 0);
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let into = Bytes.create 8 in
             ignore (Sodal.b_exchange env sv ~arg:0 (bytes_of_string "a") ~into);
             (* Stay silent long past MPL + delta-t, then talk again. *)
             Sodal.compute env (2 * Cost.record_expiry_us Cost.default);
             let c = Sodal.b_exchange env sv ~arg:0 (bytes_of_string "b") ~into in
             Alcotest.(check bool) "works after expiry" true (c.Sodal.status = Sodal.Comp_ok));
       });
  run ~horizon:600.0 net;
  let marked m =
    List.exists
      (fun e -> match e.Event.kind with Event.Mark { mark; _ } -> mark = m | _ -> false)
      (Recorder.events (Network.recorder net))
  in
  Alcotest.(check bool) "records expired during silence" true (marked Event.Record_expired);
  Alcotest.(check bool) "take-any on recontact" true (marked Event.Take_any_sn)

(* ---- recycled records ---------------------------------------------------------- *)

(* A bare transport A (mid 1), traced or not, and scripted stations 0
   (B), 2 (C) and 3 (D), which log what they hear with its time and
   answer nothing by themselves. *)
type quartet = {
  clk : Engine.t;
  a : Transport.t;
  trace : Recorder.t;
  heard : (int * int * Wire.rx) list ref;  (* (time, station, packet), latest first *)
  nics : (int * Nic.t) list;
}

let quartet ~tracing =
  let clk = Engine.create ~seed:5 () in
  let medium = Bus.create clk in
  let trace = Recorder.create ~tracing () in
  let a = Transport.create ~engine:clk ~bus:medium ~mid:1 ~cost:Cost.default ~recorder:trace in
  Transport.set_callbacks a
    {
      Transport.deliver_request =
        (fun ~src:_ ~tid:_ ~pattern:_ ~arg:_ ~put_size:_ ~get_size:_ -> `Busy);
      complete_request = (fun ~tid:_ _ -> ());
      advertised = (fun _ -> false);
      classify_unknown_tid = (fun _ -> `Completed);
    };
  ignore (Transport.attach_nic a);
  let heard = ref [] in
  let station mid =
    ( mid,
      Nic.attach medium ~mid ~rx:(fun ~src:_ ~broadcast:_ ~ctx:_ payload ->
          match Wire.decode payload with
          | Ok p -> heard := (Engine.now clk, mid, p) :: !heard
          | Error _ -> ()) )
  in
  { clk; a; trace; heard; nics = List.map station [ 0; 2; 3 ] }

let tell q ~from ?(reliable = false) ?(seq = 0) ?ack body =
  Nic.send (List.assoc from q.nics) ~dst:1
    (Wire.encode { Wire.src = from; reliable; seq; ack; run = false; body })

let wait q us = ignore (Engine.run_for q.clk ~duration:us)

(* A asks station [from] REQUEST [tid]; the station acks it, accepts it,
   and A's ack of the ACCEPT goes out on its own. *)
let exchange q ~from tid =
  Transport.submit_request q.a ~dst:from ~tid ~pattern:patt ~arg:0 ~put_data:Bytes.empty
    ~get_buffer:Bytes.empty;
  wait q 10_000;
  let seq =
    List.find_map
      (function
        | _, m, { Wire.body = Wire.Request { tid = t; _ }; seq; _ } when m = from && t = tid ->
          Some seq
        | _ -> None)
      !(q.heard)
  in
  tell q ~from ~ack:(Option.get seq) Wire.Ack;
  wait q 10_000;
  tell q ~from ~reliable:true
    (Wire.Accept { tid; arg = 0; put_transferred = 0; need_put_data = false; data = Bytes.empty });
  wait q 100_000

(* A talks to D (which keeps one record alive throughout, so the spare
   list is kept), optionally to B, stays silent towards B for two record
   lifetimes, then talks to C. What A sent to C and A's events about C,
   timed from the first of them, and the spare records before C, after
   C, and once every record has expired. *)
let talk_to_c ~via_b =
  let q = quartet ~tracing:true in
  exchange q ~from:3 1;
  if via_b then exchange q ~from:0 2;
  let lifetime = Cost.record_expiry_us Cost.default in
  for _ = 1 to 8 do
    tell q ~from:3 (Wire.Probe { tid = 99 });
    wait q (lifetime / 4)
  done;
  let spares = Transport.spare_records q.a in
  let start = Engine.now q.clk in
  exchange q ~from:2 3;
  let to_c =
    List.filter_map
      (fun (time, m, p) ->
        if m = 2 then
          Some
            (Printf.sprintf "%d seq %d%s ack %s %s" (time - start) p.Wire.seq
               (if p.Wire.run then " run" else "")
               (match p.Wire.ack with Some a -> string_of_int a | None -> "-")
               (Event.pkt_name (Wire.pkt p.Wire.body)))
        else None)
      (List.rev !(q.heard))
  in
  let about_c =
    List.filter_map
      (fun (e : Event.t) ->
        let peer =
          match e.Event.kind with
          | Event.Tx { peer; _ } | Event.Rx { peer; _ } | Event.Mark { peer; _ } -> peer
          | _ -> -1
        in
        if e.Event.mid = 1 && peer = 2 then
          Some
            (Printf.sprintf "%d %s %s" (e.Event.time_us - start) (Event.kind_label e.Event.kind)
               (Event.message e.Event.kind))
        else None)
      (Recorder.events q.trace)
  in
  let left = Transport.spare_records q.a in
  wait q (2 * lifetime);
  ((spares, left, Transport.spare_records q.a), to_c, about_c)

(* A's record of B expires and is reused for C: A's packets to C and
   its events about C are those of a run where A never talked to B. *)
let test_recycled_record_carries_nothing () =
  let spares, to_c, about_c = talk_to_c ~via_b:true in
  let _, fresh_to_c, fresh_about_c = talk_to_c ~via_b:false in
  Alcotest.(check (triple int int int))
    "B's record spare, taken for C; none kept once A is idle" (1, 0, 0) spares;
  Alcotest.(check bool) "A sent C its REQUEST and ack" true (List.length to_c >= 2);
  Alcotest.(check (list string)) "A's packets to C" fresh_to_c to_c;
  Alcotest.(check (list string)) "A's events about C" fresh_about_c about_c

(* Re-creating an expired record from the spare list allocates only the
   [conns] table's bucket: a packet from a peer whose record expired
   costs at most 4 words more than the same packet from a peer with a
   record. *)
let test_recycled_record_allocates_its_bucket () =
  let q = quartet ~tracing:false in
  let lifetime = Cost.record_expiry_us Cost.default in
  let words_of_ack ~from =
    tell q ~from Wire.Ack;
    let w0 = Gc.minor_words () in
    wait q 20_000;
    Gc.minor_words () -. w0
  in
  let worst = ref 0.0 in
  for round = 1 to 6 do
    (* D keeps A's table non-empty; B's and C's records expire *)
    ignore (words_of_ack ~from:3);
    ignore (words_of_ack ~from:0);
    ignore (words_of_ack ~from:2);
    for _ = 1 to 8 do
      tell q ~from:3 (Wire.Probe { tid = 99 });
      wait q (lifetime / 4)
    done;
    Alcotest.(check int) "B's and C's records are spare" 2 (Transport.spare_records q.a);
    let recycled = words_of_ack ~from:0 in
    let known = words_of_ack ~from:0 in
    if round > 2 then worst := Float.max !worst (recycled -. known)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a recycled record costs %.0f words more, at most 4" !worst)
    true (!worst <= 4.0)

(* The record lifetime is a sum over the retransmission schedule; working
   it out allocates nothing. *)
let test_record_expiry_allocates_nothing () =
  let cost = Sys.opaque_identity Cost.default in
  ignore (Cost.record_expiry_us cost);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Cost.record_expiry_us cost))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "10,000 readings allocate nothing (%.0f words)" words)
    true (words < 16.0)

(* ---- AIMD transparency (loss-free differential) ------------------------------ *)

(* On a clean wire congestion control must be invisible to the
   application: the identical workload, AIMD on vs off, delivers the
   same request sequence to the handler and the same completions to the
   client. Only the pacing may differ (cwnd ramps from its initial
   value instead of opening the full window at once). *)
let run_aimd_differential ~aimd =
  let cost = { Cost.default with Cost.window = 8; maxrequests = 9; aimd } in
  let net, kernels = make_net ~seed:44 ~cost 2 in
  let seen = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             seen := info.Sodal.arg :: !seen;
             ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let ok = Array.make 20 false in
  let pending = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 0 to 19 do
               while !pending >= 8 do
                 Sodal.idle env
               done;
               let tid = Sodal.signal env sv ~arg:i in
               incr pending;
               Sodal.on_completion_of env tid (fun c ->
                   decr pending;
                   ok.(i) <- c.Sodal.status = Sodal.Comp_ok)
             done;
             while !pending > 0 do
               Sodal.idle env
             done);
       });
  run ~horizon:60.0 net;
  (List.rev !seen, Array.to_list ok)

let test_aimd_transparent_loss_free () =
  let seen_on, ok_on = run_aimd_differential ~aimd:true in
  let seen_off, ok_off = run_aimd_differential ~aimd:false in
  Alcotest.(check int) "all twenty delivered" 20 (List.length seen_on);
  Alcotest.(check bool) "all completed ok" true (List.for_all (fun b -> b) ok_on);
  Alcotest.(check (list int)) "identical delivery sequence" seen_off seen_on;
  Alcotest.(check (list bool)) "identical completion sequence" ok_off ok_on


(* ---- allocation ------------------------------------------------------------ *)

(* Minor words a warm W=1 SIGNAL round trip may allocate, the whole stack
   on both nodes: the client fiber, kernels, transports and bus. It sits
   about 10% above today's count, 263.0 words, so a list, option, closure
   or tuple built per packet on this path fails here, and so do the
   closures per frame, per copy and per REQUEST outcome of before (about
   32 words more), a fresh effect handler or closures built per handler
   invocation (about 52 more) and a resume closure per fiber suspension
   (about 286 more). *)
let signal_round_trip_budget = 290.0

type round_trip = Signal | Put | Get

let round_trip_name = function Signal -> "signal" | Put -> "put" | Get -> "get"

(* Minor words per warm W=1 round trip of [op], moving [bytes] bytes, the
   whole stack on both nodes. Every buffer the clients touch is made
   once, before the count starts. *)
let round_trip_words op ~bytes =
  let net, kernels = make_net ~seed:11 2 in
  let server = List.nth kernels 0 and client = List.nth kernels 1 in
  let patt = Pattern.well_known 0o642 in
  let into = Bytes.create bytes and reply = Bytes.make bytes 'g' in
  let put = Bytes.make bytes 'p' and get_into = Bytes.create bytes in
  let wrong = ref 0 in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             if info.Sodal.put_size > 0 then begin
               let _, got = Sodal.accept_current_put env ~arg:0 ~into in
               if got <> bytes || not (Bytes.equal into put) then incr wrong
             end
             else if info.Sodal.get_size > 0 then
               ignore (Sodal.accept_current_get env ~arg:0 ~data:reply)
             else ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let warm = 200 and n = 1_000 in
  let marks = Array.make 2 0.0 in
  ignore
    (Sodal.attach client
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 10_000;
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             for i = 1 to warm + n do
               if i = warm + 1 then marks.(0) <- Gc.minor_words ();
               let c =
                 match op with
                 | Signal -> Sodal.b_signal env sv ~arg:0
                 | Put -> Sodal.b_put env sv ~arg:0 put
                 | Get -> Sodal.b_get env sv ~arg:0 ~into:get_into
               in
               if c.Sodal.status <> Sodal.Comp_ok then incr wrong;
               if op = Get && not (Bytes.equal get_into reply) then incr wrong
             done;
             marks.(1) <- Gc.minor_words ());
       });
  run net;
  Alcotest.(check int)
    (round_trip_name op ^ ": every transfer completed with its data intact")
    0 !wrong;
  (marks.(1) -. marks.(0)) /. float_of_int n

let test_signal_round_trip_budget () =
  let per_op = round_trip_words Signal ~bytes:0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per round trip, budget %.0f" per_op signal_round_trip_budget)
    true
    (per_op > 0.0 && per_op <= signal_round_trip_budget)

(* A payload's only copies are client buffer -> frame (the encoder) and
   frame -> client buffer (the kernel's blit): a warm 1,000-byte PUT and
   GET each allocate less than one copy of their data (126 words) beyond
   a SIGNAL round trip. A staging copy by the kernel at trap or ACCEPT
   time, or a decoder that copies the data out of the frame, would each
   add a whole copy. *)
let test_data_moves_without_copies () =
  let bytes = 1_000 in
  let copy_words = float_of_int ((bytes / (Sys.word_size / 8)) + 1) in
  let signal = round_trip_words Signal ~bytes:0 in
  List.iter
    (fun op ->
      let extra = round_trip_words op ~bytes -. signal in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words beyond a SIGNAL, under one copy (%.0f)"
           (round_trip_name op) extra copy_words)
        true (extra < copy_words))
    [ Put; Get ]

let suites =
  [
    ( "transport.reliability",
      [
        Alcotest.test_case "reliable under loss" `Quick test_reliable_under_loss;
        Alcotest.test_case "exactly once under loss" `Quick test_exactly_once_under_loss;
        Alcotest.test_case "corruption recovered" `Quick test_corruption_recovered;
        Alcotest.test_case "same-length PUTs intact under duplication" `Quick
          test_puts_intact_under_duplication;
        Alcotest.test_case "same-length PUTs intact under corruption" `Quick
          test_puts_intact_under_corruption;
      ] );
    ( "transport.busy",
      [
        Alcotest.test_case "busy nacks (non-pipelined)" `Quick test_busy_nacks_non_pipelined;
        Alcotest.test_case "input buffer (pipelined)" `Quick test_pipelined_buffering;
        Alcotest.test_case "withdrawn buffered request (W=1)" `Quick
          (test_withdrawn_buffered_request ~window:1);
        Alcotest.test_case "withdrawn buffered request (W=4)" `Quick
          (test_withdrawn_buffered_request ~window:4);
      ] );
    ( "transport.cancel",
      [
        Alcotest.test_case "cancel before accept" `Quick test_cancel_before_accept;
        Alcotest.test_case "cancel during BUSY backoff" `Quick
          (cancel_busy_request ~on_wire:false);
        Alcotest.test_case "cancel on the wire, then BUSY" `Quick
          (cancel_busy_request ~on_wire:true);
        Alcotest.test_case "cancel after completion" `Quick test_cancel_after_completion_fails;
      ] );
    ( "transport.server",
      [
        Alcotest.test_case "cancel of a buffered request" `Quick test_cancel_buffered;
        Alcotest.test_case "repeated cancel" `Quick test_cancel_repeated;
        Alcotest.test_case "cancel after the accept" `Quick test_cancel_after_accept;
        Alcotest.test_case "second accept of one request" `Quick test_double_accept;
        Alcotest.test_case "acked blind accept" `Quick test_blind_accept_acked;
        Alcotest.test_case "second take refused" `Quick test_second_take_refused;
      ] );
    ( "transport.client",
      [
        Alcotest.test_case "accept from a server not addressed" `Quick test_foreign_accept;
        Alcotest.test_case "resent put data times out" `Quick test_resent_put_data_times_out;
        Alcotest.test_case "remote cancel times out" `Quick test_remote_cancel_times_out;
        Alcotest.test_case "pending cancel loses to the accept" `Quick test_pending_cancel_loses;
        Alcotest.test_case "discover replies" `Quick test_discover_replies;
        Alcotest.test_case "discover closes its span" `Quick test_discover_completes_span;
      ] );
    ( "transport.crash",
      [
        Alcotest.test_case "silent node" `Quick test_request_to_silent_node_crashes;
        Alcotest.test_case "probe detects crash" `Quick test_probe_detects_server_crash;
        Alcotest.test_case "crash with queued delay lines" `Quick test_crash_with_queued_lines;
        Alcotest.test_case "stale accept" `Quick test_stale_accept_after_requester_death;
      ] );
    ( "transport.ack",
      [
        Alcotest.test_case "GET accept acked after the turnaround" `Quick
          test_get_accept_ack_hold;
        Alcotest.test_case "GET stream of 0 words: 2 packets per op" `Quick
          (test_get_stream_two_packets ~words:0);
        Alcotest.test_case "GET stream of 1 word: 2 packets per op" `Quick
          (test_get_stream_two_packets ~words:1);
        Alcotest.test_case "GET stream of 100 words: 2 packets per op" `Quick
          (test_get_stream_two_packets ~words:100);
      ] );
    ( "transport.deltat",
      [
        Alcotest.test_case "record expiry + take-any" `Quick test_deltat_record_expiry;
        Alcotest.test_case "a recycled record carries nothing over" `Quick
          test_recycled_record_carries_nothing;
      ] );
    ( "transport.aimd",
      [
        Alcotest.test_case "AIMD transparent on a clean wire" `Quick
          test_aimd_transparent_loss_free;
      ] );
    ( "transport.alloc",
      [
        Alcotest.test_case "warm W=1 SIGNAL round trip within its word budget" `Quick
          test_signal_round_trip_budget;
        Alcotest.test_case "PUT and GET data moves without copies" `Quick
          test_data_moves_without_copies;
        Alcotest.test_case "a recycled record allocates only its table bucket" `Quick
          test_recycled_record_allocates_its_bucket;
        Alcotest.test_case "Cost_model.record_expiry_us allocates nothing" `Quick
          test_record_expiry_allocates_nothing;
      ] );
  ]
