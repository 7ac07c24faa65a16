type state = Sent | Delivered | Done

type req = {
  tid : int;
  dst : int;
  put : bytes;
  get : bytes;
  submit_us : int;
  mutable state : state;
  mutable probe_id : int;
  mutable unanswered : int;
  mutable on_cancel : bool -> unit;
  mutable arg : int;
  mutable put_transferred : int;
  mutable get_data : Wire.view;
}

type discovery = { d_tid : int; d_get : bytes; mutable mids : int list (* latest first *) }

(* DISCOVERs are few and short-lived: a list beside the table. *)
type t = { reqs : (int, req) Hashtbl.t; mutable discoveries : discovery list }

let no_cancel (_ : bool) = ()

let make ~tid ~dst ~put ~get ~now state =
  { tid; dst; put; get; submit_us = now; state; probe_id = -1; unanswered = 0;
    on_cancel = no_cancel; arg = 0; put_transferred = 0; get_data = Wire.no_data }

let none = make ~tid:(-1) ~dst:(-1) ~put:Bytes.empty ~get:Bytes.empty ~now:0 Done
let create () = { reqs = Hashtbl.create 16; discoveries = [] }
let find t tid = match Hashtbl.find t.reqs tid with req -> req | exception Not_found -> none

let add t ~tid ~dst ~put ~get ~now =
  let req = make ~tid ~dst ~put ~get ~now Sent in
  Hashtbl.replace t.reqs tid req;
  req

let outstanding t = Hashtbl.length t.reqs + List.length t.discoveries

let deliver req = req.state = Sent && (req.state <- Delivered; true)
let probe req ~limit = req.unanswered < limit && (req.unanswered <- req.unanswered + 1; true)
let probe_answered req = req.state = Delivered && (req.unanswered <- 0; true)

type accept = Unknown | Foreign | Taken

let accept req ~src ~arg ~put_transferred ~data =
  if req.state = Done then Unknown
  else if src <> req.dst then Foreign
  else begin
    req.arg <- arg;
    req.put_transferred <- put_transferred;
    req.get_data <- Wire.view_prefix data (Bytes.length req.get);
    Taken
  end

let drop_data req =
  let data = req.get_data in
  req.get_data <- Wire.no_data;
  data

let await_cancel req on_done = req.on_cancel <- on_done

let take_cancel req =
  let k = req.on_cancel in
  req.on_cancel <- no_cancel;
  k

let retire t req =
  req.state <> Done
  && begin
    req.state <- Done;
    req.probe_id <- -1;
    Hashtbl.remove t.reqs req.tid;
    true
  end

let set_probe_id req id = req.probe_id <- id

let no_discovery = { d_tid = -1; d_get = Bytes.empty; mids = [] }

let discover t ~tid ~get =
  let d = { d_tid = tid; d_get = get; mids = [] } in
  t.discoveries <- d :: t.discoveries;
  d

let discover_reply t ~tid ~src =
  match List.find_opt (fun d -> d.d_tid = tid) t.discoveries with
  | Some d ->
    if (not (List.mem src d.mids)) && List.length d.mids < Bytes.length d.d_get / 2 then
      d.mids <- src :: d.mids
  | None -> ()

let discovered t d =
  t.discoveries <- List.filter (fun d' -> d' != d) t.discoveries;
  List.rev d.mids

let discovery_get d = d.d_get

let reset t =
  Hashtbl.reset t.reqs;
  t.discoveries <- []
