(* The *MOD comparison baseline (§5.5): functional correctness and the
   structural cost ordering against SODA. *)

module Engine = Soda_sim.Engine
module Bus = Soda_net.Bus
module Starmod = Soda_baseline.Starmod

let setup () =
  let engine = Engine.create ~seed:55 () in
  let bus = Bus.create engine in
  (engine, bus)

let test_sync_call () =
  let engine, bus = setup () in
  let a = Starmod.create_node ~engine ~bus ~mid:0 () in
  let b = Starmod.create_node ~engine ~bus ~mid:1 () in
  Starmod.define_port b ~port:7 (fun payload ->
      Some (Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload))));
  let reply = ref "" in
  Starmod.sync_call a ~dst:1 ~port:7 (Bytes.of_string "hello") ~on_reply:(fun r ->
      reply := Bytes.to_string r);
  ignore (Engine.run ~until:1_000_000 engine);
  Alcotest.(check string) "request/reply" "HELLO" !reply

let test_async_ordering () =
  let engine, bus = setup () in
  let a = Starmod.create_node ~engine ~bus ~mid:0 () in
  let b = Starmod.create_node ~engine ~bus ~mid:1 () in
  let received = ref [] in
  Starmod.define_port b ~port:1 (fun payload ->
      received := Bytes.to_string payload :: !received;
      None);
  let done_count = ref 0 in
  List.iter
    (fun msg ->
      Starmod.async_send a ~dst:1 ~port:1 (Bytes.of_string msg) ~on_done:(fun () ->
          incr done_count))
    [ "1"; "2"; "3" ];
  ignore (Engine.run ~until:2_000_000 engine);
  Alcotest.(check int) "all delivered" 3 !done_count;
  Alcotest.(check (list string)) "in order" [ "1"; "2"; "3" ] (List.rev !received)

let test_reliability_under_loss () =
  let engine, bus = setup () in
  Bus.set_loss_rate bus 0.3;
  let a = Starmod.create_node ~engine ~bus ~mid:0 () in
  let b = Starmod.create_node ~engine ~bus ~mid:1 () in
  let count = ref 0 in
  Starmod.define_port b ~port:1 (fun _ ->
      incr count;
      None);
  let delivered = ref 0 in
  List.iter
    (fun i ->
      Starmod.async_send a ~dst:1 ~port:1 (Bytes.make 1 (Char.chr i)) ~on_done:(fun () ->
          incr delivered))
    [ 1; 2; 3; 4; 5 ];
  ignore (Engine.run ~until:60_000_000 engine);
  Alcotest.(check int) "all acknowledged" 5 !delivered;
  Alcotest.(check int) "each delivered exactly once" 5 !count;
  Alcotest.(check bool) "retransmissions happened" true
    (Soda_obs.Metrics.counter (Starmod.stats a) "starmod.pkt.retransmitted" > 0)

let test_cost_ordering_vs_soda () =
  (* The structural claim of T3: the multiprogrammed kernel's port call is
     substantially slower than SODA's B_SIGNAL on the same bus. *)
  let engine, bus = setup () in
  let a = Starmod.create_node ~engine ~bus ~mid:0 () in
  let b = Starmod.create_node ~engine ~bus ~mid:1 () in
  Starmod.define_port b ~port:1 (fun _ -> Some Bytes.empty);
  let t0 = Engine.now engine in
  let t_done = ref 0 in
  Starmod.sync_call a ~dst:1 ~port:1 Bytes.empty ~on_reply:(fun _ ->
      t_done := Engine.now engine);
  ignore (Engine.run ~until:1_000_000 engine);
  let starmod_ms = float_of_int (!t_done - t0) /. 1000.0 in
  Alcotest.(check bool) "starmod sync call in the paper's regime (15-25 ms)" true
    (starmod_ms > 15.0 && starmod_ms < 26.0)

let suites =
  [
    ( "baseline.starmod",
      [
        Alcotest.test_case "sync call" `Quick test_sync_call;
        Alcotest.test_case "async ordering" `Quick test_async_ordering;
        Alcotest.test_case "reliability under loss" `Quick test_reliability_under_loss;
        Alcotest.test_case "cost regime" `Quick test_cost_ordering_vs_soda;
      ] );
  ]
