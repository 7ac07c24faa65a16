(* Integration tests of the SODAL runtime over the full stack:
   fibers -> kernel -> transport -> wire -> bus. *)

open Helpers
module Bqueue = Soda_runtime.Bqueue

let patt = Pattern.well_known 0o346

(* ---- basic data transfer -------------------------------------------------- *)

let test_b_put () =
  let net, kernels = make_net 2 in
  let received = ref "" in
  let k0, k1 = (List.nth kernels 0, List.nth kernels 1) in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env info ->
            let into = Bytes.create info.Sodal.put_size in
            let status, got = Sodal.accept_current_put env ~arg:7 ~into in
            assert (status = Types.Accept_success);
            received := Bytes.sub_string into 0 got);
      }
  in
  let done_ = ref false in
  let _client =
    Sodal.attach k1
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let c = Sodal.b_put env (Sodal.server ~mid:0 ~pattern:patt) ~arg:1 (bytes_of_string "hello soda") in
            Alcotest.(check bool) "completed ok" true (c.Sodal.status = Sodal.Comp_ok);
            Alcotest.(check int) "reply arg" 7 c.Sodal.reply_arg;
            Alcotest.(check int) "put transferred" 10 c.Sodal.put_transferred;
            done_ := true);
      }
  in
  run net;
  Alcotest.(check bool) "client finished" true !done_;
  Alcotest.(check string) "server received data" "hello soda" !received

let test_b_get () =
  let net, kernels = make_net 2 in
  let k0, k1 = (List.nth kernels 0, List.nth kernels 1) in
  let _server = echo_server ~reply:"file contents" k0 patt in
  let done_ = ref false in
  let _client =
    Sodal.attach k1
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let into = Bytes.create 64 in
            let c = Sodal.b_get env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 ~into in
            Alcotest.(check bool) "ok" true (c.Sodal.status = Sodal.Comp_ok);
            Alcotest.(check int) "get transferred" 13 c.Sodal.get_transferred;
            Alcotest.(check string) "data" "file contents" (Bytes.sub_string into 0 13);
            done_ := true);
      }
  in
  check_eventually net ~horizon:300.0 done_ "b_get completed"

let test_b_exchange () =
  let net, kernels = make_net 2 in
  let k0, k1 = (List.nth kernels 0, List.nth kernels 1) in
  let server_got = ref "" in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env info ->
            let into = Bytes.create info.Sodal.put_size in
            let _, got = Sodal.accept_current_exchange env ~arg:0 ~into ~data:(bytes_of_string "pong") in
            server_got := Bytes.sub_string into 0 got);
      }
  in
  let done_ = ref false in
  let _client =
    Sodal.attach k1
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let into = Bytes.create 16 in
            let c =
              Sodal.b_exchange env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                (bytes_of_string "ping") ~into
            in
            Alcotest.(check int) "both directions" 4 c.Sodal.get_transferred;
            Alcotest.(check string) "got pong" "pong" (Bytes.sub_string into 0 4);
            done_ := true);
      }
  in
  run net;
  Alcotest.(check bool) "finished" true !done_;
  Alcotest.(check string) "server got ping" "ping" !server_got

let test_b_signal_and_reject () =
  let net, kernels = make_net 2 in
  let k0, k1 = (List.nth kernels 0, List.nth kernels 1) in
  let count = ref 0 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            incr count;
            if !count = 1 then ignore (Sodal.accept_current_signal env ~arg:0)
            else Sodal.reject env);
      }
  in
  let results = ref [] in
  let _client =
    Sodal.attach k1
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            let c1 = Sodal.b_signal env sv ~arg:0 in
            let c2 = Sodal.b_signal env sv ~arg:0 in
            results := [ c1.Sodal.status; c2.Sodal.status ]);
      }
  in
  run net;
  Alcotest.(check bool) "first ok, second rejected" true
    (!results = [ Sodal.Comp_ok; Sodal.Comp_rejected ])

let test_accept_smaller_buffer () =
  (* §4.1.2: the server may ACCEPT with a smaller buffer than REQUESTed. *)
  let net, kernels = make_net 2 in
  let k0, k1 = (List.nth kernels 0, List.nth kernels 1) in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            let into = Bytes.create 4 in
            ignore (Sodal.accept_current_put env ~arg:0 ~into));
      }
  in
  let transferred = ref (-1) in
  let _client =
    Sodal.attach k1
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let c =
              Sodal.b_put env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                (bytes_of_string "0123456789")
            in
            transferred := c.Sodal.put_transferred);
      }
  in
  run net;
  Alcotest.(check int) "partial transfer reported" 4 !transferred

let test_unadvertised () =
  let net, kernels = make_net 2 in
  let _k0 = List.nth kernels 0 in
  let status = ref Sodal.Comp_ok in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
            status := c.Sodal.status);
      }
  in
  run net;
  Alcotest.(check bool) "unadvertised" true (!status = Sodal.Comp_unadvertised)

let test_unadvertise_stops_matching () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let served = ref 0 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            incr served;
            ignore (Sodal.accept_current_signal env ~arg:0);
            Sodal.unadvertise env patt);
      }
  in
  let statuses = ref [] in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            let c1 = Sodal.b_signal env sv ~arg:0 in
            let c2 = Sodal.b_signal env sv ~arg:0 in
            statuses := [ c1.Sodal.status; c2.Sodal.status ]);
      }
  in
  run net;
  Alcotest.(check bool) "second fails" true
    (!statuses = [ Sodal.Comp_ok; Sodal.Comp_unadvertised ]);
  Alcotest.(check int) "served once" 1 !served

let test_accept_current_outside_handler () =
  let net, kernels = make_net 1 in
  let raised = ref false in
  let _c =
    Sodal.attach (List.nth kernels 0)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            (try ignore (Sodal.accept_current_signal env ~arg:0)
             with Sodal.Sodal_error _ -> raised := true));
      }
  in
  run net;
  Alcotest.(check bool) "raises outside handler" true !raised

let test_blocking_request_in_handler_raises () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let raised = ref false in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            (try ignore (Sodal.b_signal env (Sodal.server ~mid:1 ~pattern:patt) ~arg:0)
             with Sodal.Sodal_error _ -> raised := true);
            ignore (Sodal.accept_current_signal env ~arg:0));
      }
  in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env -> ignore (Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0));
      }
  in
  run net;
  Alcotest.(check bool) "blocking request in handler rejected" true !raised

(* ---- handler state machine -------------------------------------------------- *)

let test_close_defers_arrivals () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let delivered_at = ref 0 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init =
          (fun env ~parent:_ ->
            Sodal.advertise env patt;
            Sodal.close_handler env);
        on_request =
          (fun env _ ->
            delivered_at := Sodal.now env;
            ignore (Sodal.accept_current_signal env ~arg:0));
        task =
          (fun env ->
            (* Keep the handler closed for 2 simulated seconds. *)
            Sodal.compute env 2_000_000;
            Sodal.open_handler env;
            Sodal.serve env);
      }
  in
  let completed = ref false in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
            completed := c.Sodal.status = Sodal.Comp_ok);
      }
  in
  run net;
  Alcotest.(check bool) "eventually completed" true !completed;
  Alcotest.(check bool) "delivered only after OPEN" true (!delivered_at >= 2_000_000)

let test_task_queue_accept () =
  (* The port pattern of §4.2.1: handler enqueues, task accepts. *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let processed = ref [] in
  let q = Bqueue.create 8 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request = (fun _ info -> Bqueue.enqueue q info.Sodal.asker);
        task =
          (fun env ->
            let served = ref 0 in
            while !served < 3 do
              if not (Bqueue.is_empty q) then begin
                let asker = Bqueue.dequeue q in
                let into = Bytes.create 8 in
                let _, got = Sodal.accept_put env asker ~arg:0 ~into in
                processed := Bytes.sub_string into 0 got :: !processed;
                incr served
              end
              else Sodal.idle env
            done);
      }
  in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            List.iter
              (fun msg -> ignore (Sodal.b_put env sv ~arg:0 (bytes_of_string msg)))
              [ "one"; "two"; "three" ]);
      }
  in
  run net;
  Alcotest.(check (list string)) "queued and served in order" [ "one"; "two"; "three" ]
    (List.rev !processed)

let test_maxrequests () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  (* A server that never accepts, so requests stay uncompleted. *)
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
      }
  in
  let raised = ref false in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            for _ = 1 to 3 do
              ignore (Sodal.signal env sv ~arg:0)
            done;
            (try ignore (Sodal.signal env sv ~arg:0)
             with Sodal.Too_many_requests -> raised := true);
            Sodal.idle env);
      }
  in
  ignore (Network.run ~until:10_000_000 net);
  Alcotest.(check bool) "MAXREQUESTS enforced" true !raised

let test_non_blocking_overlap () =
  (* Double-buffering: two PUTs outstanding at once complete in order. *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let _server = echo_server k0 patt in
  let completions = ref [] in
  let tids = ref [] in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        on_completion = (fun _ c -> completions := c.Sodal.tid :: !completions);
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            let t1 = Sodal.put env sv ~arg:0 (bytes_of_string "a") in
            let t2 = Sodal.put env sv ~arg:0 (bytes_of_string "b") in
            tids := [ t1; t2 ];
            while List.length !completions < 2 do
              Sodal.idle env
            done);
      }
  in
  run net;
  Alcotest.(check bool) "both completed in issue order" true (List.rev !completions = !tids)

let test_ordering_same_server () =
  (* §3.3.2 rule 3: requests to the same server are delivered in order. *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let seen = ref [] in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env info ->
            seen := info.Sodal.arg :: !seen;
            ignore (Sodal.accept_current_signal env ~arg:0));
      }
  in
  let done_ = ref false in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            let t1 = Sodal.signal env sv ~arg:1 in
            let t2 = Sodal.signal env sv ~arg:2 in
            let t3 = Sodal.signal env sv ~arg:3 in
            ignore (t1, t2, t3);
            while List.length !seen < 3 do
              Sodal.idle env
            done;
            done_ := true);
      }
  in
  run net;
  Alcotest.(check bool) "finished" true !done_;
  Alcotest.(check (list int)) "in-order delivery" [ 1; 2; 3 ] (List.rev !seen)

let test_die_then_unadvertised () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        task = (fun env -> Sodal.die env);
      }
  in
  let status = ref Sodal.Comp_ok in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            Sodal.compute env 200_000;
            let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
            status := c.Sodal.status);
      }
  in
  run net;
  Alcotest.(check bool) "dead client's patterns cleared" true
    (!status = Sodal.Comp_unadvertised)

let test_getuniqueid_unique () =
  let net, kernels = make_net 2 in
  let ids = ref [] in
  let collect kernel =
    ignore
      (Sodal.attach kernel
         {
           Sodal.default_spec with
           task =
             (fun env ->
               for _ = 1 to 50 do
                 (* Bind before consing: [::] evaluates right-to-left, and
                    getuniqueid suspends the fiber, so [!ids] must be read
                    after it returns. *)
                 let id = Pattern.to_int (Sodal.getuniqueid env) in
                 ids := id :: !ids
               done);
         })
  in
  List.iter collect kernels;
  run net;
  let sorted = List.sort_uniq compare !ids in
  Alcotest.(check int) "100 distinct ids" 100 (List.length sorted)

let test_negative_args_roundtrip () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let got_arg = ref 0 in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env info ->
            got_arg := info.Sodal.arg;
            ignore (Sodal.accept_current_signal env ~arg:(-123456)));
      }
  in
  let reply = ref 0 in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:(-777) in
            reply := c.Sodal.reply_arg);
      }
  in
  run net;
  Alcotest.(check int) "request arg" (-777) !got_arg;
  Alcotest.(check int) "accept arg" (-123456) !reply

(* ---- bounded queue ------------------------------------------------------------ *)

let test_bqueue () =
  let q = Bqueue.create 3 in
  Alcotest.(check bool) "empty" true (Bqueue.is_empty q);
  Bqueue.enqueue q 1;
  Alcotest.(check bool) "almost empty" true (Bqueue.almost_empty q);
  Bqueue.enqueue q 2;
  Alcotest.(check bool) "almost full" true (Bqueue.almost_full q);
  Bqueue.enqueue q 3;
  Alcotest.(check bool) "full" true (Bqueue.is_full q);
  Alcotest.check_raises "overflow" Bqueue.Full (fun () -> Bqueue.enqueue q 4);
  Alcotest.(check int) "fifo" 1 (Bqueue.dequeue q);
  Bqueue.filter_inplace q (fun x -> x <> 2);
  Alcotest.(check (list int)) "filtered" [ 3 ] (Bqueue.to_list q);
  Alcotest.(check int) "drain" 3 (Bqueue.dequeue q);
  Alcotest.check_raises "underflow" Bqueue.Empty (fun () -> ignore (Bqueue.dequeue q))

let prop_bqueue_fifo =
  QCheck.Test.make ~name:"bounded queue is fifo within capacity" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Bqueue.create (max 1 (List.length xs)) in
      List.iter (Bqueue.enqueue q) xs;
      let out = List.map (fun _ -> Bqueue.dequeue q) xs in
      out = xs)

(* The client and kernel times of §5.5 appear in a node's stats only once
   something is charged to them: a node with no client lists neither. *)
let test_untrapped_node_has_no_client_time () =
  let net, kernels = make_net 3 in
  let _server = echo_server (List.nth kernels 0) patt in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task = (fun env -> ignore (Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0));
      }
  in
  run net;
  let listed k name =
    List.exists
      (fun line -> String.starts_with ~prefix:(name ^ ":") line)
      (String.split_on_char '\n' (Format.asprintf "%a" Soda_sim.Stats.pp (Kernel.stats k)))
  in
  let labels = List.map Cost.label [ Cost.Client_overhead; Cost.Context_switch ] in
  Alcotest.(check (list bool)) "server lists both" [ true; true ]
    (List.map (listed (List.nth kernels 0)) labels);
  Alcotest.(check (list bool)) "bystander lists neither" [ false; false ]
    (List.map (listed (List.nth kernels 2)) labels)

(* ---- fibers: two execution contexts, each parked in its own slot ------- *)

(* A requester on node 1 that SIGNALs node 0 at each of [at] (virtual us,
   ascending) without blocking, then idles. *)
let signal_at kernel at =
  ignore
    (Sodal.attach kernel
       {
         Sodal.default_spec with
         task =
           (fun env ->
             List.iter
               (fun t ->
                 Sodal.compute env (t - Sodal.now env);
                 ignore (Sodal.signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0))
               at;
             Sodal.serve env);
       })

(* The handler parks in ACCEPT while the task keeps parking on its own
   timer ([compute] or [idle_for]): every resumption must come back in its
   own context, and the task must run while the handler waits. *)
let test_accept_beside_task ~idle () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let in_accept = ref false and during = ref 0 and task_ctx = ref [] and handler_ctx = ref [] in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            handler_ctx := Sodal.in_handler env :: !handler_ctx;
            in_accept := true;
            let status = Sodal.accept_current_signal env ~arg:0 in
            in_accept := false;
            Alcotest.(check bool) "accepted" true (status = Types.Accept_success);
            handler_ctx := Sodal.in_handler env :: !handler_ctx);
        task =
          (fun env ->
            for _ = 1 to 400 do
              if idle then Sodal.idle_for env 50 else Sodal.compute env 50;
              if !in_accept then incr during;
              task_ctx := Sodal.in_handler env :: !task_ctx
            done;
            Sodal.serve env);
      }
  in
  signal_at (List.nth kernels 1) [ 2_000; 9_000 ];
  run net ~horizon:1.0;
  Alcotest.(check (list bool)) "handler resumes in the handler" [ true; true; true; true ]
    !handler_ctx;
  Alcotest.(check int) "task resumptions" 400 (List.length !task_ctx);
  Alcotest.(check bool) "task resumes as the task" true (List.for_all not !task_ctx);
  Alcotest.(check bool) "task ran while the handler was in ACCEPT" true (!during > 0)

(* Two idle waiters, the task and a handler whose kernel state was
   released by hand (so a later request finds the handler free). The next
   handler's exit wakes both, the last to idle first. With [~task_last]
   the task idles for a while on a timer first and idles again after the
   handler; otherwise the task idles first. *)
let test_idle_wake_order ~task_last () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let woken = ref [] in
  let log name env = woken := (name, Sodal.in_handler env) :: !woken in
  let first = ref true in
  let _server =
    Sodal.attach k0
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            ignore (Sodal.accept_current_signal env ~arg:0);
            if !first then begin
              first := false;
              Kernel.endhandler (Sodal.kernel env);
              Sodal.idle env;
              log "handler" env
            end);
        task =
          (fun env ->
            if task_last then begin
              Sodal.idle_for env 20_000;
              log "task timer" env
            end;
            Sodal.idle env;
            log "task" env;
            Sodal.serve env);
      }
  in
  signal_at (List.nth kernels 1) [ 10_000; 30_000 ];
  run net ~horizon:1.0;
  let expected =
    if task_last then [ ("task timer", false); ("task", false); ("handler", true) ]
    else [ ("handler", true); ("task", false) ]
  in
  Alcotest.(check (list (pair string bool))) "wake order" expected (List.rev !woken)

(* A handler that releases the kernel's handler state by hand and then
   ends releases it twice: two queued completions are invoked within one
   context switch, and both must reach the client. *)
let test_two_invocations_in_flight () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 and k1 = List.nth kernels 1 in
  let completions = ref 0 in
  let _server =
    Sodal.attach k0
      {
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            ignore (Sodal.accept_current_signal env ~arg:0);
            (* Long enough for both completions below to queue. *)
            Sodal.compute env 20_000;
            Kernel.endhandler (Sodal.kernel env);
            Sodal.compute env 100);
        on_completion = (fun _ _ -> incr completions);
        task =
          (fun env ->
            let peer = Sodal.server ~mid:1 ~pattern:patt in
            ignore (Sodal.signal env peer ~arg:0);
            ignore (Sodal.signal env peer ~arg:0);
            Sodal.serve env);
      }
  in
  let _peer =
    Sodal.attach k1
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
        task =
          (fun env ->
            Sodal.compute env 1_000;
            ignore (Sodal.signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0);
            Sodal.serve env);
      }
  in
  run net ~horizon:1.0;
  Alcotest.(check int) "both completions handled" 2 !completions

(* Every handler invocation runs in the one handler record unless another
   is still suspended. An exception other than [Fiber.Stop] leaves the
   handler through its exit (the kernel's handler is released) and then
   reaches the caller of the engine; the next invocation runs in the same
   record. *)
exception Handler_fault

let test_handler_raises_then_runs_again () =
  let net, kernels = make_net 2 in
  let invoked = ref 0 and statuses = ref [] in
  let server =
    Sodal.attach (List.nth kernels 0)
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            incr invoked;
            ignore (Sodal.accept_current_signal env ~arg:0);
            if !invoked = 1 then raise Handler_fault);
      }
  in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            for _ = 1 to 2 do
              statuses := (Sodal.b_signal env sv ~arg:0).Sodal.status :: !statuses
            done;
            Sodal.serve env);
      }
  in
  let raised = try run net ~horizon:1.0; false with Handler_fault -> true in
  Alcotest.(check bool) "the fault reached the engine's caller" true raised;
  Alcotest.(check int) "one invocation before the fault" 1 !invoked;
  Alcotest.(check bool) "the handler was left" false (Sodal.in_handler server);
  run net ~horizon:1.0;
  Alcotest.(check int) "the next invocation ran" 2 !invoked;
  Alcotest.(check bool) "both SIGNALs accepted" true
    (!statuses = [ Sodal.Comp_ok; Sodal.Comp_ok ])

(* DIE inside the handler ends the client: no further invocation runs,
   and the task, parked in [compute], never resumes. *)
let test_die_in_handler () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let invoked = ref 0 and ticks = ref 0 and ticks_at_die = ref (-1) and after_die = ref false in
  let _server =
    Sodal.attach k0
      {
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            incr invoked;
            ticks_at_die := !ticks;
            (Sodal.die env : unit);
            after_die := true);
        on_completion = (fun _ _ -> ());
        task =
          (fun env ->
            while true do
              Sodal.compute env 1_000;
              incr ticks
            done);
      }
  in
  let completions = ref [] in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        on_completion = (fun _ c -> completions := c.Sodal.status :: !completions);
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            ignore (Sodal.signal env sv ~arg:0);
            Sodal.compute env 30_000;
            ignore (Sodal.signal env sv ~arg:0);
            Sodal.serve env);
      }
  in
  run net ~horizon:2.0;
  Alcotest.(check int) "one invocation" 1 !invoked;
  Alcotest.(check bool) "DIE does not return" false !after_die;
  Alcotest.(check bool) "the task ran before the DIE" true (!ticks_at_die > 0);
  Alcotest.(check int) "the task ended at the DIE" !ticks_at_die !ticks;
  Alcotest.(check bool) "the client is gone" false (Kernel.client_alive k0);
  Alcotest.(check int) "both requests completed" 2 (List.length !completions);
  Alcotest.(check bool) "neither was accepted" false (List.mem Sodal.Comp_ok !completions)

(* The Booting invocation and a later request invocation share the
   handler record, and each leaves by its own exit: Booting starts the
   task once, the request's exit wakes the idle task. *)
let test_booting_then_request_exits () =
  let net, kernels = make_net 2 in
  let log = ref [] in
  let note name env = log := (name, Sodal.in_handler env) :: !log in
  let _server =
    Sodal.attach (List.nth kernels 0)
      {
        init =
          (fun env ~parent:_ ->
            Sodal.advertise env patt;
            note "init" env);
        on_request =
          (fun env _ ->
            ignore (Sodal.accept_current_signal env ~arg:0);
            note "request" env);
        on_completion = (fun _ _ -> ());
        task =
          (fun env ->
            note "task start" env;
            Sodal.idle env;
            note "task woken" env;
            Sodal.serve env);
      }
  in
  signal_at (List.nth kernels 1) [ 5_000 ];
  run net ~horizon:1.0;
  Alcotest.(check (list (pair string bool)))
    "each invocation took its own exit"
    [ ("init", true); ("task start", false); ("request", true); ("task woken", false) ]
    (List.rev !log)

(* A second invocation that arrives while the first is still suspended
   (its kernel handler released by hand) runs in a spare record with its
   own resume point: both park and resume in the handler context without
   disturbing each other, and a third, after both, runs again. *)
let test_spare_handler_record () =
  let net, kernels = make_net 2 in
  let arrivals = ref 0 and log = ref [] in
  let _server =
    Sodal.attach (List.nth kernels 0)
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env _ ->
            incr arrivals;
            let n = !arrivals in
            ignore (Sodal.accept_current_signal env ~arg:0);
            if n = 1 then begin
              Kernel.endhandler (Sodal.kernel env);
              Sodal.compute env 20_000
            end
            else Sodal.compute env 100;
            log := (n, Sodal.in_handler env) :: !log);
      }
  in
  signal_at (List.nth kernels 1) [ 2_000; 8_000; 60_000 ];
  run net ~horizon:1.0;
  Alcotest.(check (list (pair int bool)))
    "the spare finished while the first was parked"
    [ (2, true); (1, true); (3, true) ]
    (List.rev !log)

(* ACCEPT_CURRENT answers the invocation it runs in. The first
   invocation, released by hand, ACCEPTs its own request only after a
   second has run and ended in a spare record. *)
let test_current_request_per_invocation () =
  let net, kernels = make_net 2 in
  let arrivals = ref 0 and log = ref [] in
  let _server =
    Sodal.attach (List.nth kernels 0)
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request =
          (fun env info ->
            incr arrivals;
            let n = !arrivals in
            if n = 1 then begin
              Kernel.endhandler (Sodal.kernel env);
              Sodal.compute env 20_000
            end;
            let status =
              try Some (Sodal.accept_current_signal env ~arg:n)
              with Sodal.Sodal_error _ -> None
            in
            log := (n, info.Sodal.asker.Types.rq_tid, status) :: !log);
      }
  in
  let replies = ref [] in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        on_completion =
          (fun _ c -> replies := (c.Sodal.tid, c.Sodal.status, c.Sodal.reply_arg) :: !replies);
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            Sodal.compute env 2_000;
            ignore (Sodal.signal env sv ~arg:0);
            Sodal.compute env 6_000;
            ignore (Sodal.signal env sv ~arg:0);
            Sodal.serve env);
      }
  in
  run net ~horizon:1.0;
  let ok = Some Types.Accept_success in
  (match List.rev !log with
   | [ (2, t2, s2); (1, t1, s1) ] ->
     Alcotest.(check bool) "the second ACCEPTs its own request" true (s2 = ok);
     Alcotest.(check bool) "the first ACCEPTs its own request" true (s1 = ok);
     Alcotest.(check (list (pair int int))) "each reply carries its invocation's argument"
       [ (t1, 1); (t2, 2) ]
       (List.sort compare (List.map (fun (tid, _, arg) -> (tid, arg)) !replies))
   | _ -> Alcotest.fail "expected the second invocation to end first");
  Alcotest.(check bool) "both completed" true
    (List.for_all (fun (_, st, _) -> st = Sodal.Comp_ok) !replies)

(* A client killed while its task is parked in [compute] and its handler
   in an ACCEPT (a blind one, toward a machine that does not exist, so it
   retransmits until it gives up) resumes neither, and nothing keeps it
   alive: its stale timers fire into nothing and let go of it. *)
let test_killed_client_unreachable () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let resumed = ref 0 and parked = ref 0 in
  let weak = Weak.create 1 in
  let attach_victim () =
    let env =
      Sodal.attach k0
        {
          Sodal.default_spec with
          init = (fun env ~parent:_ -> Sodal.advertise env patt);
          on_request =
            (fun env _ ->
              incr parked;
              ignore (Sodal.accept_signal env { Types.rq_mid = 9; rq_tid = 1 } ~arg:0);
              incr resumed);
          task =
            (fun env ->
              Sodal.compute env 2_000_000;
              incr resumed);
        }
    in
    Weak.set weak 0 (Some env)
  in
  attach_victim ();
  signal_at (List.nth kernels 1) [ 5_000 ];
  Engine.schedule (Network.engine net) ~delay:50_000 (fun () -> Kernel.die k0);
  run net ~horizon:10.0;
  Alcotest.(check int) "handler reached its ACCEPT" 1 !parked;
  Alcotest.(check int) "nothing resumed after the kill" 0 !resumed;
  Alcotest.(check int) "every timer fired or was withdrawn" 0
    (Engine.pending (Network.engine net));
  Gc.full_major ();
  Alcotest.(check bool) "killed client unreachable" false (Weak.check weak 0);
  (* The network, its kernel included, stays reachable through the check. *)
  ignore (Sys.opaque_identity (net, k0))

(* [await_first] parks the task in its own slot on two tids: the first
   completion resumes it, and the other, no longer awaited, reaches the
   completion handler. A CANCEL of the finished tid is answered at once,
   without parking. *)
let test_await_first_then_cancel () =
  let net, kernels = make_net 2 in
  let _server =
    Sodal.attach (List.nth kernels 0)
      {
        Sodal.default_spec with
        init = (fun env ~parent:_ -> Sodal.advertise env patt);
        on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
      }
  in
  let first = ref (-1) and handled = ref [] and tids = ref [] and cancel_ok = ref true in
  let _client =
    Sodal.attach (List.nth kernels 1)
      {
        Sodal.default_spec with
        on_completion = (fun _ c -> handled := c.Sodal.tid :: !handled);
        task =
          (fun env ->
            let sv = Sodal.server ~mid:0 ~pattern:patt in
            let a = Sodal.signal env sv ~arg:0 in
            let b = Sodal.signal env sv ~arg:0 in
            tids := [ a; b ];
            first := (Sodal.await_first env [ b; a ]).Sodal.tid;
            cancel_ok := Sodal.cancel env a;
            Sodal.serve env);
      }
  in
  run net ~horizon:1.0;
  match !tids with
  | [ a; b ] ->
    Alcotest.(check int) "the first completion wins" a !first;
    Alcotest.(check (list int)) "the other falls through to the handler" [ b ] !handled;
    Alcotest.(check bool) "CANCEL of a finished tid fails at once" false !cancel_ok
  | _ -> Alcotest.fail "the task never ran"

let suites =
  [
    ( "sodal.transfer",
      [
        Alcotest.test_case "b_put" `Quick test_b_put;
        Alcotest.test_case "b_get" `Quick test_b_get;
        Alcotest.test_case "b_exchange" `Quick test_b_exchange;
        Alcotest.test_case "b_signal + reject" `Quick test_b_signal_and_reject;
        Alcotest.test_case "accept with smaller buffer" `Quick test_accept_smaller_buffer;
        Alcotest.test_case "unadvertised pattern" `Quick test_unadvertised;
        Alcotest.test_case "unadvertise stops matching" `Quick test_unadvertise_stops_matching;
        Alcotest.test_case "negative arguments" `Quick test_negative_args_roundtrip;
      ] );
    ( "sodal.handler",
      [
        Alcotest.test_case "accept_current outside handler" `Quick
          test_accept_current_outside_handler;
        Alcotest.test_case "blocking request in handler" `Quick
          test_blocking_request_in_handler_raises;
        Alcotest.test_case "CLOSE defers arrivals" `Quick test_close_defers_arrivals;
        Alcotest.test_case "task-queue accept (ports)" `Quick test_task_queue_accept;
        Alcotest.test_case "MAXREQUESTS" `Quick test_maxrequests;
        Alcotest.test_case "non-blocking overlap" `Quick test_non_blocking_overlap;
        Alcotest.test_case "in-order delivery" `Quick test_ordering_same_server;
        Alcotest.test_case "DIE clears advertisements" `Quick test_die_then_unadvertised;
        Alcotest.test_case "getuniqueid unique" `Quick test_getuniqueid_unique;
        Alcotest.test_case "no client time without a client" `Quick
          test_untrapped_node_has_no_client_time;
      ] );
    ( "sodal.fiber",
      [
        Alcotest.test_case "await_first, then CANCEL answered at once" `Quick
          test_await_first_then_cancel;
        Alcotest.test_case "ACCEPT beside compute" `Quick (test_accept_beside_task ~idle:false);
        Alcotest.test_case "ACCEPT beside idle_for" `Quick (test_accept_beside_task ~idle:true);
        Alcotest.test_case "idle wake order: task first" `Quick
          (test_idle_wake_order ~task_last:false);
        Alcotest.test_case "idle wake order: task last" `Quick
          (test_idle_wake_order ~task_last:true);
        Alcotest.test_case "two invocations in flight" `Quick test_two_invocations_in_flight;
        Alcotest.test_case "handler raises, next invocation runs" `Quick
          test_handler_raises_then_runs_again;
        Alcotest.test_case "DIE in the handler ends the client" `Quick test_die_in_handler;
        Alcotest.test_case "Booting and request take their own exits" `Quick
          test_booting_then_request_exits;
        Alcotest.test_case "spare handler record resumes on its own" `Quick
          test_spare_handler_record;
        Alcotest.test_case "ACCEPT_CURRENT beside a spare invocation" `Quick
          test_current_request_per_invocation;
        Alcotest.test_case "killed client is unreachable" `Quick test_killed_client_unreachable;
      ] );
    ( "sodal.bqueue",
      [
        Alcotest.test_case "operations" `Quick test_bqueue;
        QCheck_alcotest.to_alcotest prop_bqueue_fifo;
      ] );
  ]
