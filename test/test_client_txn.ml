(* The requester transactions, driven through [Client_txn]'s interface:
   the tid table, delivery, probes, the ACCEPT's result, the waiting
   CANCEL and DISCOVER, with no transport, engine or kernel behind them. *)

module Cli = Soda_proto.Client_txn

(* REQUEST [tid] to mid [dst], putting [put] and able to receive
   [get_size] bytes, trapped at [now]. *)
let add ?(dst = 0) ?(put = "") ?(get_size = 0) ?(now = 0) c tid =
  Cli.add c ~tid ~dst ~put:(Bytes.of_string put) ~get_size ~now

let state =
  Alcotest.testable
    (fun ppf st ->
      Format.pp_print_string ppf
        (match st with Cli.Sent -> "Sent" | Delivered -> "Delivered" | Done -> "Done"))
    ( = )

let accept =
  Alcotest.testable
    (fun ppf a ->
      Format.pp_print_string ppf
        (match a with Cli.Unknown -> "Unknown" | Foreign -> "Foreign" | Taken -> "Taken"))
    ( = )

let test_table () =
  let c = Cli.create () in
  let a = add ~dst:3 ~put:"xy" ~get_size:8 ~now:42 c 1 in
  Alcotest.(check bool) "a submitted REQUEST is found" true (Cli.find c 1 == a);
  Alcotest.(check state) "sent" Cli.Sent a.Cli.state;
  Alcotest.(check (pair int int)) "its destination and trap time" (3, 42) (a.Cli.dst, a.Cli.submit_us);
  Alcotest.(check int) "outstanding" 1 (Cli.outstanding c);
  let miss = Cli.find c 2 in
  Alcotest.(check bool) "another tid: a miss" true (miss == Cli.none);
  Alcotest.(check state) "a miss reads done" Cli.Done miss.Cli.state;
  ignore (add c 2);
  Alcotest.(check bool) "retired" true (Cli.retire c a);
  Alcotest.(check bool) "and out of the table"
    true (Cli.find c 1 == Cli.none && Cli.find c 2 != Cli.none);
  Alcotest.(check int) "one left outstanding" 1 (Cli.outstanding c);
  Cli.reset c;
  Alcotest.(check bool) "reset forgets everything" true
    (Cli.find c 2 == Cli.none && Cli.outstanding c = 0)

let test_deliver () =
  let c = Cli.create () in
  let a = add c 1 in
  Alcotest.(check bool) "an acked REQUEST is delivered" true (Cli.deliver a);
  Alcotest.(check state) "delivered" Cli.Delivered a.Cli.state;
  Alcotest.(check bool) "a second ack changes nothing" false (Cli.deliver a);
  ignore (Cli.retire c a);
  Alcotest.(check bool) "nor does an ack of a completed one" false (Cli.deliver a);
  Alcotest.(check state) "which stays done" Cli.Done a.Cli.state;
  Alcotest.(check bool) "nor one of no request" false (Cli.deliver Cli.none)

let test_probes () =
  let c = Cli.create () in
  let a = add c 1 in
  Alcotest.(check bool) "a reply to a sent REQUEST is not taken" false (Cli.probe_answered a);
  ignore (Cli.deliver a);
  Alcotest.(check (list bool)) "three probes, then the server is silent" [ true; true; true; false ]
    (List.init 4 (fun _ -> Cli.probe a ~limit:3));
  Alcotest.(check int) "three unanswered" 3 a.Cli.unanswered;
  Alcotest.(check bool) "a reply is taken" true (Cli.probe_answered a);
  Alcotest.(check int) "and forgets them" 0 a.Cli.unanswered;
  Alcotest.(check bool) "so probing goes on" true (Cli.probe a ~limit:3);
  Alcotest.(check bool) "a limit of 0: silent at once" false (Cli.probe (add c 2) ~limit:0);
  Cli.set_probe_id a 17;
  Alcotest.(check int) "the probe-line entry" 17 a.Cli.probe_id;
  ignore (Cli.retire c a);
  Alcotest.(check int) "retiring drops it" (-1) a.Cli.probe_id;
  Alcotest.(check bool) "a reply to a completed request is not taken" false
    (Cli.probe_answered a)

let test_accept () =
  let c = Cli.create () in
  let a = add ~dst:3 ~get_size:4 c 1 in
  let data = Helpers.view (Bytes.of_string "abcdef") in
  Alcotest.(check accept) "from another server: foreign" Cli.Foreign
    (Cli.accept a ~src:5 ~arg:9 ~put_transferred:2 ~data);
  Alcotest.(check (pair int int)) "which leaves no result" (0, 0) (a.Cli.arg, a.Cli.get_data.len);
  Alcotest.(check accept) "from the addressed server: taken" Cli.Taken
    (Cli.accept a ~src:3 ~arg:7 ~put_transferred:2 ~data);
  Alcotest.(check (pair int int)) "its arg and put transferred" (7, 2)
    (a.Cli.arg, a.Cli.put_transferred);
  Alcotest.(check string) "its get data, cut to the get size"
    "abcd" (Helpers.string_of_view a.Cli.get_data);
  Alcotest.(check state) "the request is not done yet" Cli.Sent a.Cli.state;
  ignore (Cli.retire c a);
  Alcotest.(check accept) "once done: unknown" Cli.Unknown
    (Cli.accept a ~src:3 ~arg:1 ~put_transferred:0 ~data);
  Alcotest.(check accept) "no request: unknown" Cli.Unknown
    (Cli.accept Cli.none ~src:3 ~arg:1 ~put_transferred:0 ~data)

let test_cancel () =
  let c = Cli.create () in
  let a = add c 1 in
  Alcotest.(check bool) "no CANCEL waits at first" true (Cli.take_cancel a == Cli.no_cancel);
  let answers = ref [] in
  let k ok = answers := ok :: !answers in
  Cli.await_cancel a k;
  Alcotest.(check bool) "a CANCEL waits" true (a.Cli.on_cancel == k);
  Alcotest.(check bool) "taken, it is the CANCEL" true (Cli.take_cancel a == k);
  Alcotest.(check bool) "and waits no longer" true
    (a.Cli.on_cancel == Cli.no_cancel && Cli.take_cancel a == Cli.no_cancel);
  Alcotest.(check (list bool)) "answered by the caller, not here" [] !answers

let test_discover () =
  let c = Cli.create () in
  let d = Cli.discover c ~tid:9 ~max_mids:2 in
  ignore (Cli.discover c ~tid:10 ~max_mids:4);
  Alcotest.(check int) "DISCOVERs are outstanding" 2 (Cli.outstanding c);
  List.iter (fun src -> Cli.discover_reply c ~tid:9 ~src) [ 4; 4; 1; 6 ];
  Cli.discover_reply c ~tid:11 ~src:2;
  Alcotest.(check (list int)) "each mid once, in reply order, up to the cap" [ 4; 1 ]
    (Cli.discovered c d);
  Alcotest.(check int) "the ended one is no longer outstanding" 1 (Cli.outstanding c);
  Cli.discover_reply c ~tid:9 ~src:7;
  Alcotest.(check (list int)) "a late reply changes nothing" [ 4; 1 ] (Cli.discovered c d);
  Cli.reset c;
  Alcotest.(check int) "reset forgets them" 0 (Cli.outstanding c)

let suites =
  [
    ( "proto.client_txn",
      [
        Alcotest.test_case "table keyed by tid" `Quick test_table;
        Alcotest.test_case "delivery" `Quick test_deliver;
        Alcotest.test_case "probes" `Quick test_probes;
        Alcotest.test_case "accept" `Quick test_accept;
        Alcotest.test_case "waiting cancel" `Quick test_cancel;
        Alcotest.test_case "discover" `Quick test_discover;
      ] );
  ]
