(* The server transactions, driven through [Server_txn]'s interface: the
   table, the input buffer, CANCEL, and the ACCEPT's transitions, with
   no transport, engine or kernel behind them. *)

module Srv = Soda_proto.Server_txn
module Wire = Soda_proto.Wire
module Pattern = Soda_base.Pattern

let patt = Pattern.well_known 0o611

(* A REQUEST from [src] taken as [tid], putting [put] and able to
   receive [get_size] bytes. *)
let add ?(buffered = false) ?(retry = false) ?(put = "") ?(get_size = 0) s ~src tid =
  Srv.add s ~src ~tid ~pattern:patt ~arg:7 ~put_size:(String.length put) ~get_size
    ~data:(Helpers.view (Bytes.of_string put)) ~retry ~buffered;
  Srv.find s ~src ~tid

let state =
  Alcotest.testable
    (fun ppf st ->
      Format.pp_print_string ppf
        (match st with
         | Srv.Delivered -> "Delivered"
         | Accepting -> "Accepting"
         | Completed -> "Completed"
         | Cancelled -> "Cancelled"))
    ( = )

let cancel =
  Alcotest.testable
    (fun ppf c ->
      Format.pp_print_string ppf
        (match c with Srv.Cancelled_now -> "Cancelled_now" | Gone -> "Gone" | Refused -> "Refused"))
    ( = )

let accept ?(get_capacity = 0) ?(sends_data = false) ?(on_done = ignore) txn =
  Srv.accept txn ~get_capacity ~sends_data ~on_done

let test_table () =
  let s = Srv.create () in
  let a = add s ~src:1 42 in
  Alcotest.(check bool) "a taken REQUEST is found" true (Srv.find s ~src:1 ~tid:42 == a);
  Alcotest.(check state) "delivered" Srv.Delivered a.Srv.state;
  Alcotest.(check int) "its fields" 7 a.Srv.arg;
  let miss = Srv.find s ~src:2 ~tid:42 in
  Alcotest.(check bool) "same tid, other requester: a miss" true (miss == Srv.none);
  Alcotest.(check state) "a miss reads cancelled" Srv.Cancelled miss.Srv.state;
  let b = add s ~src:2 42 in
  Alcotest.(check bool) "both requesters kept apart" true
    (Srv.find s ~src:1 ~tid:42 == a && Srv.find s ~src:2 ~tid:42 == b);
  Alcotest.(check bool) "its key is held" true (Srv.holds s ~src:1 ~tid:42);
  Alcotest.check_raises "a second take is refused"
    (Invalid_argument "Server_txn.add: a second take") (fun () -> ignore (add s ~src:1 42));
  Alcotest.(check bool) "and the first record stays" true (Srv.find s ~src:1 ~tid:42 == a);
  ignore (accept a);
  (Srv.finish a) Srv.Acc_cancelled;
  Alcotest.(check bool) "in any state" true (Srv.holds s ~src:1 ~tid:42);
  Srv.remove s a;
  Alcotest.(check bool) "until it is removed" false (Srv.holds s ~src:1 ~tid:42);
  Alcotest.(check bool) "removing compares by (requester, tid)" true
    (Srv.find s ~src:1 ~tid:42 == Srv.none && Srv.find s ~src:2 ~tid:42 == b);
  Srv.reset s;
  Alcotest.(check bool) "reset forgets everything" true (Srv.find s ~src:2 ~tid:42 == Srv.none)

let test_buffer () =
  let s = Srv.create () in
  Alcotest.(check bool) "the buffer starts free" true (Srv.buffered s == Srv.none);
  ignore (add s ~src:1 1);
  Alcotest.(check bool) "a delivered REQUEST leaves it free" true (Srv.buffered s == Srv.none);
  let b = add s ~buffered:true ~src:1 2 in
  Alcotest.(check bool) "a buffered one holds it" true (Srv.buffered s == b);
  Alcotest.(check state) "taken all the same" Srv.Delivered b.Srv.state;
  Srv.free_buffer s;
  Alcotest.(check bool) "the handler took it" true
    (Srv.buffered s == Srv.none && Srv.find s ~src:1 ~tid:2 == b);
  ignore (add s ~buffered:true ~src:1 3);
  Srv.reset s;
  Alcotest.(check bool) "reset frees it" true (Srv.buffered s == Srv.none)

let test_withdraw () =
  let s = Srv.create () in
  ignore (add s ~buffered:true ~src:1 1);
  Srv.withdraw_buffered s;
  Alcotest.(check bool) "withdrawn: forgotten and the buffer free" true
    (Srv.find s ~src:1 ~tid:1 == Srv.none && Srv.buffered s == Srv.none);
  let b = add s ~buffered:true ~src:1 2 in
  Alcotest.(check bool) "a buffered REQUEST can be accepted" true (accept b);
  Alcotest.(check bool) "and stays in the buffer" true (Srv.buffered s == b);
  Srv.withdraw_buffered s;
  Alcotest.(check bool) "an accepted one is kept" true
    (Srv.find s ~src:1 ~tid:2 == b && Srv.buffered s == Srv.none)

let test_cancel () =
  let s = Srv.create () in
  let a = add s ~put:"abc" ~src:1 1 in
  Alcotest.(check cancel) "a delivered REQUEST is cancelled" Srv.Cancelled_now (Srv.cancel s a);
  Alcotest.(check state) "cancelled" Srv.Cancelled a.Srv.state;
  Alcotest.(check int) "its put data dropped" 0 (a.Srv.data.len);
  Alcotest.(check cancel) "again: granted, nothing to do" Srv.Gone (Srv.cancel s a);
  Alcotest.(check cancel) "no record: granted" Srv.Gone (Srv.cancel s Srv.none);
  Alcotest.(check bool) "a cancelled REQUEST cannot be accepted" false (accept a);
  let b = add s ~buffered:true ~src:1 2 in
  Alcotest.(check cancel) "a buffered one is cancelled" Srv.Cancelled_now (Srv.cancel s b);
  Alcotest.(check bool) "and frees the buffer" true (Srv.buffered s == Srv.none);
  let c = add s ~buffered:true ~src:1 3 in
  ignore (accept c);
  Alcotest.(check cancel) "an accepted one is refused" Srv.Refused (Srv.cancel s c);
  Alcotest.(check bool) "and keeps the buffer" true (Srv.buffered s == c);
  Srv.finish c Srv.Acc_cancelled;
  Alcotest.(check cancel) "so is a completed one" Srv.Refused (Srv.cancel s c);
  Alcotest.(check state) "which stays completed" Srv.Completed c.Srv.state

let test_accept () =
  let s = Srv.create () in
  let a = add s ~put:"abcdef" ~get_size:4 ~src:1 1 in
  Alcotest.(check bool) "a delivered REQUEST is accepted" true
    (accept ~get_capacity:4 ~sends_data:true a);
  Alcotest.(check state) "accepting" Srv.Accepting a.Srv.state;
  Alcotest.(check int) "takes what the accepter can hold" 4 a.Srv.put_transferred;
  Alcotest.(check string) "of the data the REQUEST brought"
    "abcd" (Helpers.string_of_view a.Srv.data);
  Alcotest.(check bool) "which it need not wait for" false a.Srv.need_data;
  Alcotest.(check bool) "an ACCEPT with get data waits for its ack" true
    (a.Srv.send = Srv.Awaiting_ack);
  Alcotest.(check bool) "so it is not ready" false (Srv.ready a);
  Alcotest.(check bool) "a second ACCEPT is refused" false (accept a);
  Alcotest.(check bool) "resolving an unfinished ACCEPT starts no lifetime" false (Srv.resolve a);
  Alcotest.(check bool) "acked: ready" true (Srv.ready a);
  let b = add s ~put:"xy" ~src:1 2 in
  ignore (accept ~get_capacity:10 b);
  Alcotest.(check bool) "a dataless ACCEPT is ready before its ack" true
    (b.Srv.send = Srv.Unacked && Srv.ready b);
  Alcotest.(check string) "with all the put data" "xy" (Helpers.string_of_view b.Srv.data);
  let c = add s ~put:"xy" ~src:1 3 in
  ignore (accept ~get_capacity:0 c);
  Alcotest.(check bool) "no room: nothing taken, nothing awaited" true
    (c.Srv.put_transferred = 0 && (not c.Srv.need_data) && c.Srv.data.len = 0)

let test_put_data_resent () =
  let s = Srv.create () in
  let a = add s ~put:"abcdef" ~retry:true ~src:1 1 in
  Alcotest.(check int) "a retry brings no data" 0 (a.Srv.data.len);
  Alcotest.(check bool) "data sent to a delivered REQUEST is ignored" false
    (Srv.take_data a (Helpers.view (Bytes.of_string "zz")));
  ignore (accept ~get_capacity:4 a);
  Alcotest.(check bool) "the ACCEPT waits for the put data" true a.Srv.need_data;
  Alcotest.(check bool) "so it is not ready" false (Srv.ready a);
  Alcotest.(check bool) "the resent data is taken" true
    (Srv.take_data a (Helpers.view (Bytes.of_string "abcdef")));
  Alcotest.(check string) "up to what the accepter holds"
    "abcd" (Helpers.string_of_view a.Srv.data);
  Alcotest.(check bool) "the wait is over" true ((not a.Srv.need_data) && Srv.ready a);
  Alcotest.(check bool) "a second copy is ignored"
    false (Srv.take_data a (Helpers.view (Bytes.of_string "q")));
  Alcotest.(check string) "and changes nothing" "abcd" (Helpers.string_of_view a.Srv.data);
  let b = add s ~put:"abc" ~retry:true ~src:1 2 in
  ignore (accept ~get_capacity:4 b);
  Srv.finish b Srv.Acc_cancelled;
  Alcotest.(check bool) "data for an ended ACCEPT is ignored" false
    (Srv.take_data b (Helpers.view (Bytes.of_string "abc")))

let test_finish () =
  let s = Srv.create () in
  let reported = ref [] in
  let a = add s ~put:"abc" ~src:1 1 in
  ignore (accept ~get_capacity:3 ~on_done:(fun o -> reported := o :: !reported) a);
  let report = Srv.finish a in
  Alcotest.(check state) "completed" Srv.Completed a.Srv.state;
  Alcotest.(check int) "holds no data through its lifetime" 0 (a.Srv.data.len);
  Alcotest.(check bool) "not ready any more" false (Srv.ready a);
  Alcotest.(check int) "reports nothing itself" 0 (List.length !reported);
  report Srv.Acc_cancelled;
  Alcotest.(check int) "returns the accepter" 1 (List.length !reported);
  (Srv.finish a) Srv.Acc_cancelled;
  Alcotest.(check int) "and keeps it no longer" 1 (List.length !reported);
  Alcotest.(check bool) "its send resolved: the lifetime starts" true (Srv.resolve a);
  Alcotest.(check bool) "resolved" true (a.Srv.send = Srv.Resolved)

let test_timer_ids () =
  let s = Srv.create () in
  let a = add s ~src:1 1 in
  Alcotest.(check (pair int int)) "none pending" (-1, -1) (a.Srv.gc_id, a.Srv.data_id);
  Srv.set_gc_id a 5;
  Srv.set_data_id a 9;
  Alcotest.(check (pair int int)) "as set" (5, 9) (a.Srv.gc_id, a.Srv.data_id)

let suites =
  [
    ( "proto.server_txn",
      [
        Alcotest.test_case "table keyed by requester and tid" `Quick test_table;
        Alcotest.test_case "input buffer" `Quick test_buffer;
        Alcotest.test_case "withdrawn buffered request" `Quick test_withdraw;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "accept" `Quick test_accept;
        Alcotest.test_case "put data sent again" `Quick test_put_data_resent;
        Alcotest.test_case "finish drops data and accepter" `Quick test_finish;
        Alcotest.test_case "lifetime and data-wait ids" `Quick test_timer_ids;
      ] );
  ]
