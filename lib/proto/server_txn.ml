type outcome = Acc_success of Wire.view | Acc_cancelled | Acc_crashed of Wire.view
type state = Delivered | Accepting | Completed | Cancelled
type send = Awaiting_ack | Unacked | Resolved

type txn = {
  mutable src : int;
  mutable tid : int;
  pattern : Soda_base.Pattern.t;
  arg : int;
  put_size : int;
  get_size : int;
  mutable state : state;
  mutable data : Wire.view;
  mutable put_transferred : int;
  mutable need_data : bool;
  mutable send : send;
  mutable on_done : outcome -> unit;
  mutable gc_id : int;
  mutable data_id : int;
}

let no_report (_ : outcome) = ()

let make ~src ~tid ~pattern ~arg ~put_size ~get_size ~data state =
  { src; tid; pattern; arg; put_size; get_size; state; data; put_transferred = 0;
    need_data = false; send = Resolved; on_done = no_report; gc_id = -1; data_id = -1 }

let none =
  make ~src:(-1) ~tid:(-1) ~pattern:(Soda_base.Pattern.well_known 0) ~arg:0 ~put_size:0
    ~get_size:0 ~data:Wire.no_data Cancelled

(* Keyed by (requester, tid): 16 + 48 bits on the wire, one more than an
   int holds, so a record is its own key, compared field by field. A
   lookup fills the table's one [probe] record instead of building one.
   The hash is a multiply and a fold, with no call into the runtime: every
   REQUEST offered to the kernel looks its key up first. *)
module Tbl = Hashtbl.Make (struct
  type t = txn

  let equal a b = a.src = b.src && a.tid = b.tid

  let hash k =
    let h = ((k.src lsl 48) lxor k.tid) * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

type t = { txns : txn Tbl.t; probe : txn; mutable buffered : txn }

(* [probe] is a copy of [none], never in the table. *)
let create () = { txns = Tbl.create 16; probe = { none with src = -1 }; buffered = none }

let find t ~src ~tid =
  t.probe.src <- src;
  t.probe.tid <- tid;
  match Tbl.find t.txns t.probe with txn -> txn | exception Not_found -> none

(* [mem], not [find]: a miss, the usual answer, raises nothing. *)
let holds t ~src ~tid =
  t.probe.src <- src;
  t.probe.tid <- tid;
  Tbl.mem t.txns t.probe

let add t ~src ~tid ~pattern ~arg ~put_size ~get_size ~data ~retry ~buffered =
  if holds t ~src ~tid then invalid_arg "Server_txn.add: a second take";
  let data = if retry || put_size = 0 then Wire.no_data else data in
  let txn = make ~src ~tid ~pattern ~arg ~put_size ~get_size ~data Delivered in
  if buffered then t.buffered <- txn;
  Tbl.add t.txns txn txn

let buffered t = t.buffered
let free_buffer t = t.buffered <- none

let withdraw_buffered t =
  let txn = t.buffered in
  if txn.state = Delivered then Tbl.remove t.txns txn;
  free_buffer t

type cancel = Cancelled_now | Gone | Refused

let cancel t txn =
  match txn.state with
  | Delivered ->
    if t.buffered == txn then free_buffer t;
    txn.state <- Cancelled;
    txn.data <- Wire.no_data;
    Cancelled_now
  | Cancelled -> Gone
  | Accepting | Completed -> Refused

let accept txn ~get_capacity ~sends_data ~on_done =
  match txn.state with
  | Delivered ->
    let put_transferred = min txn.put_size get_capacity in
    txn.state <- Accepting;
    txn.put_transferred <- put_transferred;
    txn.need_data <- put_transferred > 0 && txn.data.len = 0;
    txn.data <- Wire.view_prefix txn.data put_transferred;
    txn.send <- (if sends_data then Awaiting_ack else Unacked);
    txn.on_done <- on_done;
    true
  | Accepting | Completed | Cancelled -> false

let take_data txn data =
  if txn.state = Accepting && txn.need_data then begin
    txn.data <- Wire.view_prefix data txn.put_transferred;
    txn.need_data <- false;
    true
  end
  else false

let ready txn = txn.state = Accepting && (not txn.need_data) && txn.send <> Awaiting_ack

let finish txn =
  let report = txn.on_done in
  txn.state <- Completed;
  txn.data <- Wire.no_data;
  txn.on_done <- no_report;
  report

let resolve txn =
  txn.send <- Resolved;
  txn.state = Completed

let set_gc_id txn id = txn.gc_id <- id
let set_data_id txn id = txn.data_id <- id
let remove t txn = Tbl.remove t.txns txn

let reset t =
  Tbl.reset t.txns;
  t.buffered <- none
