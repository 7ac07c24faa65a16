module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Metrics = Soda_obs.Metrics
module Delay_line = Soda_sim.Delay_line
module Window = Send_window
module Rx = Recv_window
module Srv = Server_txn
module Cli = Client_txn
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event
module Causal = Soda_obs.Causal
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic
module Pool = Soda_net.Pool
module Crc16 = Soda_net.Crc16
module Frame = Soda_net.Frame
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model
module Types = Soda_base.Types

type completion =
  | Comp_accepted of Cli.req
  | Comp_unadvertised
  | Comp_crashed
  | Comp_discovered of int list

type accept_outcome = Srv.outcome =
  | Acc_success of Wire.view
  | Acc_cancelled
  | Acc_crashed of Wire.view

type delivery_decision = [ `Deliver | `Busy | `Unadvertised ]

type callbacks = {
  deliver_request :
    src:int ->
    tid:int ->
    pattern:Pattern.t ->
    arg:int ->
    put_size:int ->
    get_size:int ->
    delivery_decision;
  complete_request : tid:int -> completion -> unit;
  advertised : Pattern.t -> bool;
  classify_unknown_tid : int -> [ `Completed | `Stale ];
}

(* A Delta-t connection record, plain data: its expiry is an entry of
   the transport's [expiry_line], and its window's waits are entries of
   the lines the node's windows share. An expired record may be reused
   for another peer ([take_record]). *)
type conn = {
  mutable peer : int;
  tx : Window.t;  (* the sending half *)
  rx : Rx.t;  (* the receiving half *)
  mutable expiry_deadline : int;
      (* virtual time before which the delta-t record must not expire;
         pushed forward on every touch WITHOUT a new entry (a heap push
         per received packet) — the entry re-pushes the remainder when it
         fires early *)
  mutable expiry_id : int;  (* the record's entry in [expiry_line]; -1 = none *)
}

type t = {
  engine : Engine.t;
  bus : Bus.t;
  mid : int;
  cost : Cost.t;
  lifetime : int;  (* a record's lifetime, [Cost.record_expiry_us] *)
  recorder : Recorder.t;  (* the network's shared structured-event recorder *)
  stats : Metrics.t;
  mutable nic : Nic.t option;
  mutable cb : callbacks option;
  conns : (int, conn) Hashtbl.t;
  reqs : Cli.t;  (* the outbound requests and DISCOVERs *)
  (* Broadcast frames are not covered by the per-connection seq/ack
     machinery, so a bus-level duplication replays them verbatim. Responder
     side of DISCOVER remembers recently answered (src, tid) pairs and
     drops the replay instead of scheduling a second staggered reply. *)
  seen_discovers : (int * int, unit) Hashtbl.t;
  srv : Srv.t;  (* the server transactions and the pipelined input buffer *)
  holders : conn Queue.t;
      (* connections with a REQUEST held at the head of their receive
         window, in the order each head was first held: freed input-buffer
         capacity goes to the longest holder *)
  mutable records : records option;  (* made with the first connection record *)
  window_env : Window.env;
  rx_shared : Rx.shared;
  (* the fixed delays: a frame's packet CPU on the way out and on the way
     in ([n] = frame length), the probe
     interval, and one record lifetime for a server record's GC and for a
     put-data wait ([n] = 1 once the ACCEPT is acked) *)
  tx_line : (Frame.t, unit) Delay_line.t;
  rx_line : (Wire.rx, Causal.ctx option) Delay_line.t;
  probe_line : (Cli.req, unit) Delay_line.t;
  gc_line : (Srv.txn, unit) Delay_line.t;
  data_line : (Srv.txn, unit) Delay_line.t;
  (* the data copies, each entry waiting its own: the requester's put
     data reaching the server's client, before the ACCEPT in [b] goes out
     ([n] = 1) or after it arrived late ([n] = 0), and an accepted
     request's get data reaching ours *)
  srv_copy_line : (Srv.txn, Wire.body) Delay_line.t;
  get_copy_line : (Cli.req, unit) Delay_line.t;
  (* the DISCOVER delays: our collection window ([n] = tid), and, for a
     DISCOVER we heard ([n] = the asker's mid, [a] = tid), our reply's
     stagger ([b]) or the end of the record lifetime for which its
     replays are dropped *)
  discover_line : (Cli.discovery, unit) Delay_line.t;
  answer_line : (int, bool) Delay_line.t;
  (* the outcome of every REQUEST send and of every ACCEPT of a record,
     made once *)
  request_sent : int -> int -> Window.outcome -> unit;
  accept_sent : int -> int -> Window.outcome -> unit;
  (* Causal identity per live transaction: the requester registers the
     minted context at trap time, the server adopts a child span at
     first sight of a context-carrying packet. Keyed by tid (globally
     unique mints), populated only when the recorder runs causal. *)
  tid_causal : (int, Causal.ctx) Hashtbl.t;
  hot : hot_cells;
}

(* The connection records' expiries, and the expired records kept for
   reuse. Made with the first record, since the line's filler [nobody] is
   a record of no peer. A record's entry is live while its [expiry_id]
   is the entry's id. *)
and records = {
  nobody : conn;
  expiry_line : (conn, unit) Delay_line.t;
  mutable spares : conn array;  (* expired records in [0, n_spares), [nobody] above *)
  mutable n_spares : int;
}

(* Backing cells of the per-packet and per-transaction stats, fetched
   once at [create]: every packet bumps two counters and four §5.5 time
   counters (µs) on each side, and the string-keyed lookups were a
   measurable slice of the packet cost at scale. [sent_by_kind]/
   [recv_by_kind] are indexed by [Wire.kind] - 1. The slots resolve at
   their first use, so a node that never submits or serves exports no
   such counter and carries no histogram. *)
and hot_cells = {
  c_sent_total : int ref;
  c_recv_total : int ref;
  c_standalone_acks : int ref;
  c_duplicates : int ref;
  sent_by_kind : int ref array;
  recv_by_kind : int ref array;
  t_transmission : int ref;
  t_protocol : int ref;
  t_conn_timer : int ref;
  t_retrans_timer : int ref;
  req_submitted : Metrics.counter_slot;
  req_delivered : Metrics.counter_slot;
  retake_refused : Metrics.counter_slot;
  req_latency_us : Metrics.histogram_slot;
  no_sync_dropped : Metrics.counter_slot;
  records_created : Metrics.counter_slot;
  records_expired : Metrics.counter_slot;
  packet_cpu : int;  (* packet_protocol_us + conn_timer_us + retrans_timer_us *)
}

let mid t = t.mid
let stats t = t.stats
let cost t = t.cost

let callbacks t =
  match t.cb with
  | Some cb -> cb
  | None -> failwith "Transport: callbacks not set"

(* Structured-event emission: one branch when tracing is off; the payload
   is only built under the guard, so a quiet run allocates nothing. *)
let tracing t = Recorder.tracing t.recorder

(* Every event that names a tid is stamped with that transaction's causal
   context (when one is registered): the whole transport instruments
   itself through this one chokepoint. *)
let event t kind =
  let ctx =
    match Event.tid kind with
    | Some tid -> Hashtbl.find_opt t.tid_causal tid
    | None -> None
  in
  Recorder.emit t.recorder ?ctx ~time_us:(Engine.now t.engine) ~mid:t.mid kind

(* A Delta-t state change: [peer] is -1 and [tid] is [Event.no_tid] when
   they do not apply, [n] a count (0 when unused). *)
let mark t ~peer ~tid ~n mark =
  if tracing t then event t (Event.Mark { peer; tid; mark; n })

(* Causal registration: the kernel calls [register_causal] at trap time
   (requester side); the server side adopts a child span on first rx of a
   context-carrying packet for a tid it has not seen. *)
let register_causal t ~tid ctx = Hashtbl.replace t.tid_causal tid ctx

let causal_ctx t ~tid = Hashtbl.find_opt t.tid_causal tid

let forget_causal t ~tid = Hashtbl.remove t.tid_causal tid

(* Charge kernel CPU for one packet event and attribute it (§5.5
   breakdown); the packet waits it out in the tx or rx line. *)
let charge_packet_cpu t =
  let h = t.hot in
  h.t_protocol := !(h.t_protocol) + t.cost.Cost.packet_protocol_us;
  h.t_conn_timer := !(h.t_conn_timer) + t.cost.Cost.conn_timer_us;
  h.t_retrans_timer := !(h.t_retrans_timer) + t.cost.Cost.retrans_timer_us

let win t = Cost.transport_window t.cost

(* ---- connection records ------------------------------------------------ *)

let conn_active conn = Window.active conn.tx || Window.owed_ack conn.tx >= 0 || Rx.active conn.rx

let records t = match t.records with Some r -> r | None -> assert false

let expiry_live id conn () = conn.expiry_id = id

let new_record t peer =
  { peer; tx = Window.create t.window_env ~peer; rx = Rx.create t.rx_shared; expiry_deadline = 0;
    expiry_id = -1 }

(* An expired record goes back to the spare list only with no entry
   left in a line (its window's deadlines, wake, ack hold and copies) and
   no place in [holders]: any of them would reach the record's next
   peer. *)
let spare r conn =
  if Window.quiet conn.tx && not (Rx.holding conn.rx) then begin
    let n = r.n_spares in
    if n = Array.length r.spares then begin
      let bigger = Array.make (max 4 (2 * n)) r.nobody in
      Array.blit r.spares 0 bigger 0 n;
      r.spares <- bigger
    end;
    r.spares.(n) <- conn;
    r.n_spares <- n + 1
  end

let drop_spares r =
  r.spares <- [||];
  r.n_spares <- 0

(* A record for [peer]: a spare one, made fresh again, or a new one. *)
let take_record t peer =
  match t.records with
  | Some r when r.n_spares > 0 ->
    let n = r.n_spares - 1 in
    let c = r.spares.(n) in
    r.spares.(n) <- r.nobody;
    r.n_spares <- n;
    c.peer <- peer;
    Window.reuse c.tx ~peer;
    Rx.reuse c.rx;
    c.expiry_deadline <- 0;
    c
  | Some _ -> new_record t peer
  | None ->
    let nobody =
      { peer = -1; tx = Window.nobody t.window_env; rx = Rx.nobody t.rx_shared;
        expiry_deadline = 0; expiry_id = -1 }
    in
    let expiry_line = Delay_line.create ~tag:"proto" t.engine ~delay:0 ~fill_a:nobody ~fill_b:() in
    t.records <- Some { nobody; expiry_line; spares = [||]; n_spares = 0 };
    new_record t peer

(* The record is forgotten. The spare list goes with the last live
   record, so an idle transport keeps none. *)
let expire t r conn =
  mark t ~peer:conn.peer ~tid:Event.no_tid ~n:0 Event.Record_expired;
  Metrics.bump t.hot.records_expired;
  Hashtbl.remove t.conns conn.peer;
  if Hashtbl.length t.conns = 0 then drop_spares r else spare r conn

(* Lazy expiry: every packet touches the record, and cancelling plus
   re-pushing its entry per touch cost a heap push/pop per packet. The
   deadline lives in [expiry_deadline]; the entry fires at some stale
   deadline, notices it moved, and re-pushes the remainder — the record
   still expires at exactly last-touch + record_expiry_us. Each push
   reserves its id where the record's timer was armed. *)
let rec push_expiry t conn ~delay =
  conn.expiry_id <-
    Delay_line.push_after (records t).expiry_line ~delay ~fire:expiry_fired t ~n:0 conn ()

and arm_expiry t conn =
  let delay = t.lifetime in
  conn.expiry_deadline <- Engine.now t.engine + delay;
  if conn.expiry_id < 0 then push_expiry t conn ~delay

and expiry_fired t =
  let r = records t in
  let conn = Delay_line.head_a r.expiry_line in
  Delay_line.next r.expiry_line expiry_live;
  conn.expiry_id <- -1;
  let now = Engine.now t.engine in
  if now < conn.expiry_deadline then push_expiry t conn ~delay:(conn.expiry_deadline - now)
  else if conn_active conn then arm_expiry t conn
  else expire t r conn

let conn_for t peer =
  match Hashtbl.find t.conns peer with
  | c -> c
  | exception Not_found ->
    let c = take_record t peer in
    Hashtbl.replace t.conns peer c;
    mark t ~peer ~tid:Event.no_tid ~n:0 Event.Record_created;
    Metrics.bump t.hot.records_created;
    arm_expiry t c;
    c

(* ---- raw packet emission ----------------------------------------------- *)

(* A frame has waited out its packet CPU: hand it to the medium, unless
   the node has been shut down meanwhile. *)
let tx_fired t =
  let l = t.tx_line in
  let frame = Delay_line.head_a l in
  Delay_line.next l Delay_line.always;
  if Option.is_some t.nic then Bus.transmit t.bus frame

(* A received frame's buffer goes back to the pool once no view of it is
   left (Nic.attach_view). *)
let release t (data : Wire.view) =
  if data.buf != Bytes.empty then Pool.release (Bus.pool t.bus) data.buf

let data_of (pkt : Wire.rx) =
  match pkt.body with
  | Wire.Request { data; _ } | Wire.Accept { data; _ } | Wire.Put_data { data; _ } -> data
  | _ -> Wire.no_data

(* Nothing takes [pkt]'s data: its frame goes back. *)
let drop t pkt = release t (data_of pkt)

(* Emit a packet to [peer] (-1 = broadcast) carrying the cumulative
   [ack] (-1 = none), or, to a peer when [ack] is -1, any owed
   acknowledgement (piggyback, §5.2.3). The kernel CPU cost is charged
   before the NIC transmits. *)
let emit t ~peer ~reliable ~seq ~run ~ack body =
  if Option.is_none t.nic then failwith "Transport: no NIC";
  let ack = if ack >= 0 || peer < 0 then ack else Window.take_ack (conn_for t peer).tx in
  let pkt = { Wire.src = t.mid; reliable; seq; ack = Wire.ack_of ack; run; body } in
  let size = Wire.encoded_size pkt in
  charge_packet_cpu t;
  let tx = Bus.transmission_time_us t.bus ~payload_bytes:size in
  t.hot.t_transmission := !(t.hot.t_transmission) + tx;
  Stdlib.incr t.hot.c_sent_total;
  Stdlib.incr t.hot.sent_by_kind.(Wire.kind body - 1);
  if tracing t then
    event t
      (Event.Tx
         {
           tid = Wire.tid body;
           peer = (if peer < 0 then Event.broadcast_peer else peer);
           pkt = Wire.pkt body;
           bytes = size;
           seq;
           retry = (match body with Wire.Request { retry; _ } -> retry | _ -> false);
         });
  (* Encode straight into a pooled frame buffer (payload + CRC trailer) and
     seal it in place: this is the one copy of the client's data on the
     way out. Ownership passes to the bus at transmit time. If the frame
     is dropped from the outgoing line by a kernel reset the buffer is
     simply GC-reclaimed (the pool is a cache, not an accounting
     authority). *)
  let wire = Pool.acquire (Bus.pool t.bus) (size + 2) in
  let written = Wire.encode_into pkt wire ~off:0 in
  assert (written = size);
  Crc16.seal wire ~len:written;
  (* The sending span's causal identity rides the frame out of band;
     wire bytes are already encoded above and unaffected. *)
  let frame =
    { Frame.src = t.mid; dst = (if peer < 0 then Frame.Broadcast else Frame.To peer); wire;
      len = size + 2; ctx = Hashtbl.find_opt t.tid_causal (Wire.tid body) }
  in
  ignore (Delay_line.push t.tx_line ~fire:tx_fired t ~n:0 frame ())

(* An unsequenced packet: a response, probe, discovery or bare ack. *)
let emit_unsequenced t ~peer body = emit t ~peer ~reliable:false ~seq:0 ~run:false ~ack:(-1) body

(* A response to the consumed reliable message [pkt]: remember it for
   duplicate replay, and let it carry the owed ack. *)
let respond_consumed t conn pkt body =
  Rx.respond conn.rx pkt body;
  emit_unsequenced t ~peer:conn.peer body

(* ---- owed acknowledgements --------------------------------------------- *)

(* How long the ack of a consumed [body] waits for a packet to carry it.
   A REQUEST's waits for a promptly issued ACCEPT, including both its data
   copies (§5.2.3). An ACCEPT with data blocks its accepter until acked
   ([Awaiting_ack]), so its ack waits only for the requester's turnaround:
   the kernel->client copy, then the client's next request, which
   piggybacks it; a pipelined GET stream stays at two packets per op. That
   hold ends 1 us after the turnaround: a request trapped at its very end
   is an event scheduled after this timer, and must still win the ack. A
   dataless ACCEPT, DATA and CANCEL keep the grace window on top. *)
let ack_hold t body =
  let c = t.cost in
  match body with
  | Wire.Request { put_size; get_size; _ } ->
    c.Cost.ack_grace_us + Cost.data_copy_us c ~bytes:put_size
    + Cost.data_copy_us c ~bytes:get_size + c.Cost.accept_trap_us
    + c.Cost.context_switch_us + c.Cost.handler_client_us
  | Wire.Accept { data; _ } ->
    let turnaround = c.Cost.request_trap_us + c.Cost.context_switch_us in
    let bytes = data.Wire.len in
    if bytes > 0 then Cost.data_copy_us c ~bytes + turnaround + 1
    else c.Cost.ack_grace_us + turnaround
  | _ -> c.Cost.ack_grace_us

(* The ack owed to [peer] was held its time: it goes alone. *)
let ack_due t peer =
  Stdlib.incr t.hot.c_standalone_acks;
  emit_unsequenced t ~peer Wire.Ack

let replay_response t conn pkt =
  Stdlib.incr t.hot.c_duplicates;
  mark t ~peer:conn.peer ~tid:Event.no_tid ~n:0 Event.Duplicate_replayed;
  if Window.owed_ack conn.tx >= 0 then
    (* Our ack is still within its grace window; quell the retransmission
       with an immediate standalone ack. *)
    emit_unsequenced t ~peer:conn.peer Wire.Ack
  else
    emit t ~peer:conn.peer ~reliable:false ~seq:0 ~run:false ~ack:(Rx.cum_ack conn.rx)
      (Rx.response conn.rx pkt)

(* [on_done peer tid outcome] reports how the send ended. *)
let send_reliable t ~peer ~kind ~tid body ~on_done =
  let conn = conn_for t peer in
  arm_expiry t conn;
  Window.send conn.tx kind ~tid body on_done

(* ---- requester: outbound requests (§3.3, §3.6.2) ------------------------ *)

let probe_live id (req : Cli.req) () = req.probe_id = id

(* Take [req] out of the table and stop probing it; false if it was out
   already. The caller then reports the outcome and closes the span with
   [forget_causal], so stale late packets for the tid are no longer
   attributed to it. *)
let retire t (req : Cli.req) =
  let id = req.probe_id in
  Cli.retire t.reqs req && (Delay_line.cancel t.probe_line probe_live id; true)

(* How an outbound request completed: by its ACCEPT, whose result is in
   the record, by an unadvertised ERROR, or taken for crashed. *)
type verdict = Accepted | Unadvertised | Crashed

let complete t (req : Cli.req) verdict =
  if retire t req then begin
    Metrics.sample t.hot.req_latency_us (Engine.now t.engine - req.submit_us);
    if tracing t then begin
      let status : Event.status =
        match verdict with
        | Accepted -> if req.arg < 0 then Rejected else Accepted
        | Unadvertised -> Unadvertised
        | Crashed -> Crashed
      in
      event t (Event.Complete { tid = req.tid; status })
    end;
    (* A pending CANCEL loses the race against completion (§3.3.3). *)
    (Cli.take_cancel req) false;
    (callbacks t).complete_request ~tid:req.tid
      (match verdict with
       | Accepted -> Comp_accepted req
       | Unadvertised -> Comp_unadvertised
       | Crashed -> Comp_crashed);
    (* the kernel has copied the get data out of the ACCEPT's frame *)
    release t (Cli.drop_data req);
    forget_causal t ~tid:req.tid
  end

(* A CANCEL that took effect, unless the request completed first. *)
let cancel_granted t (req : Cli.req) on_done =
  let ok = retire t req in
  on_done ok;
  if ok then begin
    release t (Cli.drop_data req);
    forget_causal t ~tid:req.tid
  end

let rec arm_probe t req =
  Cli.set_probe_id req (Delay_line.push t.probe_line ~fire:probe_fired t ~n:0 req ())

and probe_fired t =
  let req = Delay_line.head_a t.probe_line in
  Delay_line.next t.probe_line probe_live;
  Cli.set_probe_id req (-1);
  if req.state = Delivered then begin
    let misses = req.unanswered in
    if misses > 0 then Metrics.incr t.stats "probe.misses";
    if Cli.probe req ~limit:t.cost.Cost.probe_miss_limit then begin
      Metrics.incr t.stats "probe.sent";
      if tracing t then event t (Event.Probe { tid = req.tid; peer = req.dst; misses });
      emit_unsequenced t ~peer:req.dst (Wire.Probe { tid = req.tid });
      arm_probe t req
    end
    else begin
      mark t ~peer:req.dst ~tid:req.tid ~n:misses Event.Probe_silent;
      complete t req Crashed
    end
  end

let rec mark_delivered t req =
  if Cli.deliver req then begin
    arm_probe t req;
    (* A CANCEL waiting for the server's state to become known can now
       proceed remotely. *)
    let k = Cli.take_cancel req in
    if k != Cli.no_cancel then send_remote_cancel t req k
  end

and send_remote_cancel t (req : Cli.req) k =
  send_reliable t ~peer:req.dst ~kind:K_cancel ~tid:req.tid (Wire.Cancel_request { tid = req.tid })
    ~on_done:(fun _ _ outcome ->
      match outcome with
      | Out_cancel_reply true -> cancel_granted t req k
      | Out_timeout ->
        (* Server dead: the request itself fails CRASHED; cancel fails
           because the request "completed" first. *)
        complete t req Crashed;
        k false
      | _ -> k false)

(* A CANCEL of a request the server will never see again -- still queued,
   backing off, or just refused BUSY -- succeeds locally: drop it from the
   send queue and let whatever it held back go. *)
let cancel_unsent t conn (req : Cli.req) on_done =
  Window.drop_queued conn.tx ~tid:req.tid K_request;
  cancel_granted t req on_done

(* ---- requester: submitting --------------------------------------------- *)

let submit_request t ~dst ~tid ~pattern ~arg ~put_data ~get_size =
  ignore (Cli.add t.reqs ~tid ~dst ~put:put_data ~get_size ~now:(Engine.now t.engine));
  Metrics.bump t.hot.req_submitted;
  let put_size = Bytes.length put_data in
  let body = Wire.Request { tid; pattern; arg; put_size; get_size; data = put_data; retry = false } in
  send_reliable t ~peer:dst ~kind:K_request ~tid body ~on_done:t.request_sent

(* How a REQUEST's send ended; a request that completed meanwhile is out
   of the table, and [Cli.none] changes nothing. *)
let request_sent t _peer tid (outcome : Window.outcome) =
  let req = Cli.find t.reqs tid in
  match outcome with
  | Out_acked -> mark_delivered t req
  | Out_error Wire.Err_unadvertised -> complete t req Unadvertised
  | _ -> complete t req Crashed

(* The collection window closed: report the mids that answered, and
   close the DISCOVER's span. It took exactly the window. *)
let discover_fired t =
  let l = t.discover_line in
  let tid = Delay_line.head_n l and d = Delay_line.head_a l in
  Delay_line.next l Delay_line.always;
  let mids = Cli.discovered t.reqs d in
  Metrics.sample t.hot.req_latency_us t.cost.Cost.discover_window_us;
  if tracing t then event t (Event.Complete { tid; status = Discovered });
  (callbacks t).complete_request ~tid (Comp_discovered mids);
  forget_causal t ~tid

let submit_discover t ~tid ~pattern ~max_mids =
  let d = Cli.discover t.reqs ~tid ~max_mids in
  Metrics.incr t.stats "discover.submitted";
  emit_unsequenced t ~peer:(-1) (Wire.Discover { tid; pattern });
  ignore (Delay_line.push t.discover_line ~fire:discover_fired t ~n:tid d ())

(* ---- server: transactions ----------------------------------------------- *)

let gc_live id (txn : Srv.txn) () = txn.gc_id = id

let gc_fired t =
  let txn = Delay_line.head_a t.gc_line in
  Delay_line.next t.gc_line gc_live;
  Srv.set_gc_id txn (-1);
  Srv.remove t.srv txn;
  forget_causal t ~tid:txn.tid

(* Forget a finished server record one lifetime from now, replacing any
   GC already due. *)
let srv_gc t (txn : Srv.txn) =
  let id = txn.gc_id in
  Srv.set_gc_id txn (-1);
  Delay_line.cancel t.gc_line gc_live id;
  Srv.set_gc_id txn (Delay_line.push t.gc_line ~fire:gc_fired t ~n:0 txn ())

(* End an ACCEPT and report [outcome]. The record lives on until its
   ACCEPT's send is [Resolved], and expires one record lifetime after
   that: while a dataless ACCEPT still waits in the send queue or is
   being retransmitted, a probe from its requester must hear "alive". *)
let accept_finish t (txn : Srv.txn) outcome =
  let data = txn.data in
  let report = Srv.finish txn in
  if txn.send = Resolved then srv_gc t txn;
  report outcome;
  (* the accepter has copied the put data out of its frame *)
  release t data

let accept_resolved t txn = if Srv.resolve txn then srv_gc t txn

let accept_check_done t (txn : Srv.txn) =
  if Srv.ready txn then accept_finish t txn (Acc_success txn.data)

let accept_queued t (txn : Srv.txn) =
  match Hashtbl.find t.conns txn.src with
  | conn -> Window.queued conn.tx ~tid:txn.tid K_accept
  | exception Not_found -> false

let data_live id (txn : Srv.txn) () = txn.data_id = id

let stop_data_wait t (txn : Srv.txn) =
  let id = txn.data_id in
  Srv.set_data_id txn (-1);
  Delay_line.cancel t.data_line data_live id

let data_fired t =
  let l = t.data_line in
  let txn = Delay_line.head_a l and acked = Delay_line.head_n l = 1 in
  Delay_line.next l data_live;
  Srv.set_data_id txn (-1);
  if txn.state = Accepting && txn.need_data && (acked || accept_queued t txn) then begin
    Metrics.incr t.stats "accept.data_timeouts";
    mark t ~peer:txn.src ~tid:txn.tid ~n:0 Event.Data_wait_expired;
    accept_finish t txn (Acc_crashed Wire.no_data)
  end

(* The put data was wasted on a busy transmission; a crashed requester
   will never resend it, so the wait (and the busy server) is bounded by
   one Delta-t lifetime, counted from the ACCEPT and again from its ack.
   The first count ends it only while the ACCEPT is still queued (at W=1,
   behind our REQUEST to a peer whose handler waits on data of ours); a
   sent ACCEPT is bounded by its retransmissions, and at W>1 may sit
   behind a receive gap for longer than the lifetime. *)
let await_put_data t txn ~acked =
  stop_data_wait t txn;
  Srv.set_data_id txn (Delay_line.push t.data_line ~fire:data_fired t ~n:(Bool.to_int acked) txn ())

(* Blind accept: either a guessed signature or a requester that crashed
   and lost our record. Send it; the requester's kernel will answer with
   the appropriate error (§3.3.2 rule 6, §5.4 staleness). *)
let accept_blind t ~requester_mid ~requester_tid ~arg ~on_done =
  let body =
    Wire.Accept
      { tid = requester_tid; arg; put_transferred = 0; need_put_data = false; data = Bytes.empty }
  in
  send_reliable t ~peer:requester_mid ~kind:K_accept ~tid:requester_tid body
    ~on_done:(fun _ _ outcome ->
      match outcome with
      | Out_acked -> on_done Acc_cancelled
      | Out_error Wire.Err_crashed -> on_done (Acc_crashed Wire.no_data)
      | Out_error _ -> on_done Acc_cancelled
      | Out_timeout -> on_done (Acc_crashed Wire.no_data)
      | Out_cancel_reply _ -> ())

(* How the ACCEPT's own send ended. Its record is found by its key: it
   is held until the send is resolved, and never replaced. *)
let accept_sent t peer tid (outcome : Window.outcome) =
  let txn = Srv.find t.srv ~src:peer ~tid in
  match outcome with
  | Out_acked ->
    accept_resolved t txn;
    if txn.need_data then await_put_data t txn ~acked:true;
    accept_check_done t txn
  | Out_error _ | Out_timeout ->
    accept_resolved t txn;
    if txn.state = Accepting then
      accept_finish t txn
        (if outcome = Out_error Wire.Err_cancelled then Acc_cancelled else Acc_crashed txn.data)
  | Out_cancel_reply _ -> ()

(* The put data has reached the client: an ACCEPT waiting for it goes
   out. *)
let srv_copied t =
  let l = t.srv_copy_line in
  let txn = Delay_line.head_a l and send = Delay_line.head_n l = 1 and body = Delay_line.head_b l in
  Delay_line.next l Delay_line.always;
  if send then
    send_reliable t ~peer:txn.src ~kind:K_accept ~tid:txn.tid body ~on_done:t.accept_sent;
  accept_check_done t txn

let accept t ~requester_mid ~requester_tid ~arg ~get_capacity ~data_out ~on_done =
  let txn = Srv.find t.srv ~src:requester_mid ~tid:requester_tid in
  if txn == Srv.none then accept_blind t ~requester_mid ~requester_tid ~arg ~on_done
  else
    let sends_data = Bytes.length data_out > 0 && txn.get_size > 0 in
    if not (Srv.accept txn ~get_capacity ~sends_data ~on_done) then
      on_done Acc_cancelled (* a second ACCEPT, or the request was cancelled *)
    else begin
      let data_out = Wire.truncate data_out txn.get_size in
      (* The input-buffer -> client copy of the requester's put data happens
         as part of the ACCEPT command; the outbound copy is charged at
         transmit time. *)
      let copy_us = Cost.data_copy_us t.cost ~bytes:txn.data.len in
      t.hot.t_protocol := !(t.hot.t_protocol) + copy_us;
      if txn.need_data then await_put_data t txn ~acked:false;
      let body =
        Wire.Accept
          { tid = requester_tid; arg; put_transferred = txn.put_transferred;
            need_put_data = txn.need_data; data = data_out }
      in
      ignore (Delay_line.push_after t.srv_copy_line ~delay:copy_us ~fire:srv_copied t ~n:1 txn body)
    end

(* ---- cancel -------------------------------------------------------------- *)

let cancel t ~tid ~on_done =
  let req = Cli.find t.reqs tid in
  match req.state with
  | Done -> on_done false
  | Delivered -> send_remote_cancel t req on_done
  | Sent ->
    let conn = conn_for t req.dst in
    if Window.queued conn.tx ~tid K_request then cancel_unsent t conn req on_done
    else
      (* Await the acknowledgement; the outcome callback resolves us. *)
      Cli.await_cancel req on_done

(* ---- incoming packet processing ------------------------------------------ *)

let consume t conn ~resync pkt =
  if Rx.base conn.rx < 0 then mark t ~peer:conn.peer ~tid:Event.no_tid ~n:0 Event.Take_any_sn;
  if Rx.consume conn.rx ~resync pkt then
    mark t ~peer:conn.peer ~tid:Event.no_tid ~n:1 Event.Stale_dropped

let stash t conn pkt =
  let s = Rx.stash conn.rx pkt in
  if s = Rx.Replaced_stale then mark t ~peer:conn.peer ~tid:Event.no_tid ~n:1 Event.Stale_dropped;
  if s <> Rx.Already_stashed && tracing t then begin
    let base = Rx.base conn.rx in
    event t
      (Event.Window_buffer
         { tid = Wire.tid pkt.Wire.body; peer = conn.peer; seq = pkt.Wire.seq;
           expected = (if base < 0 then pkt.Wire.seq else base) })
  end;
  s

(* ---- responses to our own reliable sends --------------------------------- *)

let handle_busy t conn tid =
  Window.busy conn.tx ~tid (fun () ->
      let req = Cli.find t.reqs tid in
      let k = Cli.take_cancel req in
      (* cancelled while on the wire: the server refused it, so the
         CANCEL wins here rather than after the retries *)
      k == Cli.no_cancel || (cancel_unsent t conn req k; false))

let handle_error t conn tid code =
  if not (Window.error conn.tx ~tid code) then
    (* An acked request the server held in its input buffer is withdrawn
       when the handler unadvertises before taking it (see
       [flush_buffered]); without this it would wait for the probes to
       report its healthy server CRASHED. *)
    if code = Wire.Err_unadvertised then begin
      let req = Cli.find t.reqs tid in
      if req.state = Delivered && req.dst = conn.peer then complete t req Unadvertised
    end

(* ---- consumed-body handlers ---------------------------------------------- *)

(* The get data has reached the client: the request completes. *)
let get_copied t =
  let l = t.get_copy_line in
  let req = Delay_line.head_a l in
  Delay_line.next l Delay_line.always;
  complete t req Accepted

let handle_accept t conn pkt src ~tid ~arg ~put_transferred ~need_put_data data =
  let req = Cli.find t.reqs tid in
  match Cli.accept req ~src ~arg ~put_transferred ~data with
  | Unknown ->
    release t data;
    let code =
      match (callbacks t).classify_unknown_tid tid with
      | `Completed -> Wire.Err_cancelled
      | `Stale -> Wire.Err_crashed
    in
    respond_consumed t conn pkt (Wire.Error { tid; code })
  | Foreign ->
    (* Rule 6 of §3.3.2: only the addressed server may accept. *)
    release t data;
    respond_consumed t conn pkt (Wire.Error { tid; code = Wire.Err_cancelled })
  | Taken ->
    let copy_us = Cost.data_copy_us t.cost ~bytes:req.get_data.len in
    t.hot.t_protocol := !(t.hot.t_protocol) + copy_us;
    if need_put_data then begin
      (* The put data was wasted on a busy transmission and must be
         re-sent; the data exchange -- and hence the requester's
         completion -- is only over once the server acknowledges it. *)
      Metrics.incr t.stats "req.data_resend";
      send_reliable t ~peer:src ~kind:K_put_data ~tid
        (Wire.Put_data { tid; data = Wire.truncate req.put put_transferred })
        ~on_done:(fun _ _ outcome ->
          match outcome with
          | Out_acked -> complete t req Accepted
          | _ -> complete t req Crashed)
    end
    else if copy_us = 0 then complete t req Accepted
    else ignore (Delay_line.push_after t.get_copy_line ~delay:copy_us ~fire:get_copied t ~n:0 req ())

let handle_put_data t conn ~tid data =
  let txn = Srv.find t.srv ~src:conn.peer ~tid in
  if Srv.take_data txn data then begin
    stop_data_wait t txn;
    let copy_us = Cost.data_copy_us t.cost ~bytes:txn.data.len in
    t.hot.t_protocol := !(t.hot.t_protocol) + copy_us;
    ignore (Delay_line.push_after t.srv_copy_line ~delay:copy_us ~fire:srv_copied t ~n:0 txn Wire.Ack)
  end
  else release t data

let handle_cancel_request t conn pkt ~tid =
  let txn = Srv.find t.srv ~src:conn.peer ~tid in
  let data = txn.data in
  let ok =
    match Srv.cancel t.srv txn with
    | Cancelled_now ->
      release t data;
      srv_gc t txn;
      true
    | Gone -> true
    | Refused -> false
  in
  if ok then Metrics.incr t.stats "cancel.granted" else Metrics.incr t.stats "cancel.refused";
  respond_consumed t conn pkt (Wire.Cancel_reply { tid; ok })

(* Consume an in-order ACCEPT, DATA or CANCEL and owe its ack. *)
let consume_in_order t conn ~resync pkt =
  consume t conn ~resync pkt;
  Window.owe_ack conn.tx ~hold:(ack_hold t pkt.Wire.body) pkt.Wire.seq

(* Act on a body consumed by [consume_in_order]. *)
let handle_consumed t conn pkt =
  match pkt.Wire.body with
  | Wire.Accept { tid; arg; put_transferred; need_put_data; data } ->
    handle_accept t conn pkt pkt.Wire.src ~tid ~arg ~put_transferred ~need_put_data data
  | Wire.Put_data { tid; data } -> handle_put_data t conn ~tid data
  | Wire.Cancel_request { tid } -> handle_cancel_request t conn pkt ~tid
  | _ -> ()

let handle_probe t conn tid =
  let alive = (Srv.find t.srv ~src:conn.peer ~tid).state <> Cancelled in
  Metrics.incr t.stats "probe.answered";
  emit_unsequenced t ~peer:conn.peer (Wire.Probe_reply { tid; alive })

let handle_probe_reply t tid alive =
  let req = Cli.find t.reqs tid in
  if Cli.probe_answered req && not alive then begin
    Metrics.incr t.stats "probe.lost";
    mark t ~peer:req.dst ~tid ~n:0 Event.Probe_lost;
    complete t req Crashed
  end

let answer_fired t =
  let l = t.answer_line in
  let src = Delay_line.head_n l and tid = Delay_line.head_a l and reply = Delay_line.head_b l in
  Delay_line.next l Delay_line.always;
  if reply then emit_unsequenced t ~peer:src (Wire.Discover_reply { tid })
  else Hashtbl.remove t.seen_discovers (src, tid)

let answer t ~delay src tid reply =
  ignore (Delay_line.push_after t.answer_line ~delay ~fire:answer_fired t ~n:src tid reply)

let handle_discover t src tid pattern =
  if Hashtbl.mem t.seen_discovers (src, tid) then
    Metrics.incr t.stats "discover.duped"
  else begin
    Hashtbl.replace t.seen_discovers (src, tid) ();
    answer t ~delay:t.lifetime src tid false;
    if (callbacks t).advertised pattern then begin
      Metrics.incr t.stats "discover.matched";
      answer t ~delay:(t.cost.Cost.discover_stagger_us * (t.mid + 1)) src tid true
    end
  end

let handle_discover_reply t src tid = Cli.discover_reply t.reqs ~tid ~src

(* Refuse an in-order REQUEST. A consumed rejection is stored and
   replayed on duplicates. *)
let reject_request t conn pkt ~resync body =
  if Window.rejection_consumes t.cost then begin
    consume t conn ~resync pkt;
    respond_consumed t conn pkt body
  end
  else emit_unsequenced t ~peer:conn.peer body

(* The refused REQUEST's put data is wasted: an ACCEPT asks for it again. *)
let busy_nack t conn pkt ~resync tid =
  Metrics.incr t.stats "req.busy_nacked";
  if tracing t then event t (Event.Busy_nack { tid; peer = conn.peer });
  reject_request t conn pkt ~resync (Wire.Busy { tid });
  drop t pkt

(* Offer an in-order REQUEST to the kernel; false when it is held (windowed
   pipelined kernels only): the slot stays unconsumed and the packet stays
   stashed at the head of the receive window, data intact, until the input
   buffer frees. A copy of a transaction we still hold a record of (its
   connection record expired and a late retransmission started a new one)
   is not offered: it is consumed and acked, and the transaction goes on
   as it was. *)
let offer_request t conn pkt ~resync =
  let src = pkt.Wire.src in
  match pkt.Wire.body with
  | Wire.Request { tid; _ } when Srv.holds t.srv ~src ~tid ->
    consume_in_order t conn ~resync pkt;
    Metrics.bump t.hot.retake_refused;
    drop t pkt;
    true
  | Wire.Request { tid; pattern; arg; put_size; get_size; data; retry } ->
    (match (callbacks t).deliver_request ~src ~tid ~pattern ~arg ~put_size ~get_size with
     | `Unadvertised ->
       Metrics.incr t.stats "req.unadvertised";
       reject_request t conn pkt ~resync (Wire.Error { tid; code = Wire.Err_unadvertised });
       drop t pkt;
       true
     | `Deliver ->
       consume_in_order t conn ~resync pkt;
       Srv.add t.srv ~src ~tid ~pattern ~arg ~put_size ~get_size ~data ~retry ~buffered:false;
       Metrics.bump t.hot.req_delivered;
       if tracing t then
         event t
           (Event.Deliver
              { tid; src; pattern = Pattern.to_int pattern; put_size; get_size;
                from_buffer = false });
       true
     | `Busy ->
       if t.cost.Cost.pipelined && Srv.buffered t.srv == Srv.none then begin
         consume_in_order t conn ~resync pkt;
         Srv.add t.srv ~src ~tid ~pattern ~arg ~put_size ~get_size ~data ~retry ~buffered:true;
         Metrics.incr t.stats "req.buffered";
         true
       end
       else if win t > 1 && t.cost.Cost.pipelined && not resync then begin
         (* input buffer full: defer rather than nack, keeping the put data
            for delivery once the handler drains. A REQUEST that restarts
            the peer's numbering is refused instead: its number lies
            behind the window, where nothing can be held. The connection
            queues for the input buffer unless it already waits there. *)
         ignore (stash t conn pkt);
         if Rx.hold conn.rx pkt then Queue.push conn t.holders;
         false
       end
       else begin
         busy_nack t conn pkt ~resync tid;
         true
       end)
  | _ -> assert false

(* Process stashed packets that have become in-order (the gap filled, or a
   held REQUEST's handler freed). Stops at the first hold. A REQUEST held
   on first contact is the synchronisation point: it is offered as soon as
   the buffer drains. *)
let rec drain_recv t conn =
  let pkt = Rx.head conn.rx in
  if pkt != Rx.none then
    match pkt.Wire.body with
    | Wire.Request _ -> if offer_request t conn pkt ~resync:false then drain_recv t conn
    | _ ->
      consume_in_order t conn ~resync:false pkt;
      handle_consumed t conn pkt;
      drain_recv t conn

(* Offer freed input-buffer capacity to the held connections, longest
   holder first. A hold means the whole node's input buffer is occupied
   ([`Busy] does not depend on the pattern), so the first head still held
   after a drain that consumed nothing ends the walk: everyone behind it
   would be held too. A connection that made progress but holds a newer
   REQUEST goes to the back; one that holds nothing any more leaves. *)
let rec drain_holders t =
  if not (Queue.is_empty t.holders) then begin
    let conn = Queue.peek t.holders in
    let before = Rx.base conn.rx in
    drain_recv t conn;
    (* an in-order head left after the drain is a REQUEST it held *)
    let held = Rx.head conn.rx != Rx.none in
    if not (held && Rx.base conn.rx = before) then begin
      ignore (Queue.pop t.holders);
      if held then Queue.push conn t.holders else Rx.release conn.rx;
      drain_holders t
    end
  end

let flush_buffered t =
  let txn = Srv.buffered t.srv in
  if txn != Srv.none then begin
    let { Srv.src; tid; pattern; arg; put_size; get_size; _ } = txn in
    match (callbacks t).deliver_request ~src ~tid ~pattern ~arg ~put_size ~get_size with
    | `Deliver ->
      Srv.free_buffer t.srv;
      Metrics.bump t.hot.req_delivered;
      Metrics.incr t.stats "req.delivered_from_buffer";
      if tracing t then
        event t
          (Event.Deliver
             { tid; src; pattern = Pattern.to_int pattern; put_size; get_size;
               from_buffer = true })
    | `Busy -> ()
    | `Unadvertised ->
      Srv.withdraw_buffered t.srv;
      release t txn.data;
      emit_unsequenced t ~peer:src (Wire.Error { tid; code = Wire.Err_unadvertised })
  end;
  (* The freed handler (and possibly the freed input buffer) may unblock a
     REQUEST deferred at the head of a receive window. *)
  drain_holders t

let process_packet t ~ctx ~bytes pkt =
  let src = pkt.Wire.src in
  Stdlib.incr t.hot.c_recv_total;
  Stdlib.incr t.hot.recv_by_kind.(Wire.kind pkt.Wire.body - 1);
  (* Causal adoption: the first context-carrying packet for an unknown tid
     makes this node a child of the sender's span. Registered before the
     Rx event below so even the first receive is attributed; duplicates
     and retransmissions find the existing entry and change nothing. *)
  (match ctx with
   | Some parent ->
     let tid = Wire.tid pkt.Wire.body in
     if tid <> Event.no_tid && not (Hashtbl.mem t.tid_causal tid) then (
       match Recorder.mint_child t.recorder parent with
       | Some child -> register_causal t ~tid child
       | None -> ())
   | None -> ());
  if tracing t then
    event t
      (Event.Rx
         { tid = Wire.tid pkt.Wire.body; peer = src; pkt = Wire.pkt pkt.Wire.body;
           bytes; seq = pkt.Wire.seq });
  let conn = conn_for t src in
  arm_expiry t conn;
  let cls = Rx.classify conn.rx pkt in
  let resync = match cls with Rx.Resync -> true | _ -> false in
  (* Consuming a run-flagged packet voids everything still stashed for
     this peer: nothing else was outstanding when it launched, so stashed
     packets are stale remnants of a send era the peer abandoned. *)
  (match cls with
   | (In_order | Resync) when pkt.Wire.run ->
     let n = Rx.flush_run_stale conn.rx pkt in
     if n > 0 then mark t ~peer:conn.peer ~tid:Event.no_tid ~n Event.Stale_dropped
   | _ -> ());
  (* For non-REQUEST reliable bodies, consume the sequence number and
     register the owed acknowledgement BEFORE processing the piggybacked
     ack: acking our in-flight message may immediately transmit the next
     queued one, which should carry the ack we now owe (§5.2.3). *)
  (match pkt.Wire.body, cls with
   | (Wire.Accept _ | Wire.Put_data _ | Wire.Cancel_request _), (In_order | Resync) ->
     consume_in_order t conn ~resync pkt
   | _ -> ());
  (* A BUSY must be interpreted before the cumulative ack riding the same
     packet: at window >1 the busy'd slot was consumed by the peer, and the
     plain ack walk must not mistake it for a success. *)
  (match pkt.Wire.body with Wire.Busy { tid } -> handle_busy t conn tid | _ -> ());
  (* An Error response both acknowledges (transport level) and rejects
     (semantic level) the in-flight message; its body must win, so the
     piggybacked ack is suppressed and handle_error advances the window. *)
  (match pkt.Wire.ack, pkt.Wire.body with
   | Some _, Wire.Error _ -> ()
   | Some a, _ -> Window.ack conn.tx a
   | None, _ -> ());
  match pkt.Wire.body, cls with
  | _, Dup ->
    drop t pkt;
    replay_response t conn pkt
  | _, No_sync ->
    (* No record and not a run start: the piggybacked ack above was still
       honoured, but the body waits for the flagged retransmission. *)
    drop t pkt;
    Metrics.bump t.hot.no_sync_dropped;
    mark t ~peer:conn.peer ~tid:Event.no_tid ~n:0 Event.No_sync_drop
  | Wire.Request _, (In_order | Resync) ->
    let held = Rx.head_copy conn.rx pkt in
    if held != Rx.none then begin
      (* retransmission of a REQUEST already held at the window head;
         re-offer the held original (it still carries the put data), and
         count the swallowed retransmission against the hold bound: past
         it, refuse the held REQUEST before the hold kills its sender *)
      drop t pkt;
      drain_recv t conn;
      if Rx.held_retry conn.rx held then begin
        busy_nack t conn held ~resync:false (Wire.tid held.Wire.body);
        drain_recv t conn
      end
    end
    else if offer_request t conn pkt ~resync then drain_recv t conn
  | _, Out_of_order -> (
    match pkt.Wire.body with
    | Put_data { tid; data } ->
      (* The slot must fill in order, but a DATA BODY is
         transaction-addressed and idempotent -- and the accepting handler
         may be blocked waiting for exactly this data while earlier slots
         wait for that handler (requests pipelined ahead of the DATA).
         Processing the body eagerly breaks the circular wait; a copy
         without the data still fills the gap for window bookkeeping and
         is replayed harmlessly, so the data's frame has one holder. *)
      ignore (stash t conn { pkt with body = Put_data { tid; data = Wire.no_data } });
      handle_put_data t conn ~tid data
    | _ -> if stash t conn pkt = Rx.Already_stashed then drop t pkt)
  | (Wire.Accept _ | Wire.Put_data _ | Wire.Cancel_request _), (In_order | Resync) ->
    handle_consumed t conn pkt;
    drain_recv t conn
  | Wire.Ack, _ -> ()
  | Wire.Busy _, _ -> () (* handled above, before the cumulative ack *)
  | Wire.Error { tid; code }, _ -> handle_error t conn tid code
  | Wire.Cancel_reply { tid; ok }, _ -> Window.cancel_reply conn.tx ~tid ok
  | Wire.Probe { tid }, _ -> handle_probe t conn tid
  | Wire.Probe_reply { tid; alive }, _ -> handle_probe_reply t tid alive
  | Wire.Discover { tid; pattern }, _ -> handle_discover t src tid pattern
  | Wire.Discover_reply { tid }, _ -> handle_discover_reply t src tid
  | (Wire.Request _ | Wire.Accept _ | Wire.Put_data _ | Wire.Cancel_request _), Unsequenced ->
    drop t pkt

(* A frame has waited out its packet CPU: process it. *)
let rx_fired t =
  let l = t.rx_line in
  let bytes = Delay_line.head_n l and pkt = Delay_line.head_a l and ctx = Delay_line.head_b l in
  Delay_line.next l Delay_line.always;
  process_packet t ~ctx ~bytes pkt

let attach_nic t =
  (* Zero-copy receive: decode in place, each data field a view of the
     frame. A unicast frame is ours from here: one whose packet holds no
     view goes back to the pool at once, and one that does when its data
     has been copied to the client or dropped ([release], [drop]). A
     broadcast frame stays the bus's, so one with data is refused. *)
  let pool = Bus.pool t.bus in
  let nic =
    Nic.attach_view ~stats:t.stats t.bus ~mid:t.mid
      ~rx:(fun ~src:_ ~broadcast ~ctx ~wire ~len ->
        match Wire.decode_sub wire ~off:0 ~len with
        | Ok pkt when not (broadcast && data_of pkt != Wire.no_data) ->
          if data_of pkt == Wire.no_data && not broadcast then Pool.release pool wire;
          charge_packet_cpu t;
          ignore (Delay_line.push t.rx_line ~fire:rx_fired t ~n:len pkt ctx)
        | Ok _ | Error _ ->
          Metrics.incr t.stats "pkt.decode_errors";
          if not broadcast then Pool.release pool wire)
  in
  t.nic <- Some nic;
  nic

(* ---- creation ----------------------------------------------------------- *)

(* The per-kind counter names, indexed by [Wire.kind] - 1: built once per
   process, and shared as keys by every node's registry. *)
let kind_names prefix =
  Array.of_list (List.map (fun p -> prefix ^ Event.pkt_name p) Event.pkts)

let sent_names = kind_names "pkt.sent."
let recv_names = kind_names "pkt.recv."

let no_frame = { Frame.src = -1; dst = Frame.Broadcast; wire = Bytes.empty; len = 0; ctx = None }

let create ~engine ~bus ~mid ~cost ~recorder =
  (* One medium, one window: receive-side classification derives its
     sequence arithmetic from the LOCAL window, which is only sound if
     every station agrees. *)
  Bus.claim_seq_window bus ~window:(Cost.transport_window cost);
  let stats = Metrics.create () in
  let by_kind names = Array.map (Metrics.counter_cell stats) names in
  let hot =
    {
      c_sent_total = Metrics.counter_cell stats "pkt.sent.total";
      c_recv_total = Metrics.counter_cell stats "pkt.recv.total";
      c_standalone_acks = Metrics.counter_cell stats "pkt.standalone_acks";
      c_duplicates = Metrics.counter_cell stats "pkt.duplicates";
      sent_by_kind = by_kind sent_names;
      recv_by_kind = by_kind recv_names;
      t_transmission = Metrics.counter_cell stats (Cost.label Cost.Transmission);
      t_protocol = Metrics.counter_cell stats (Cost.label Cost.Protocol);
      t_conn_timer = Metrics.counter_cell stats (Cost.label Cost.Conn_timer);
      t_retrans_timer = Metrics.counter_cell stats (Cost.label Cost.Retrans_timer);
      req_submitted = Metrics.counter_slot stats "req.submitted";
      req_delivered = Metrics.counter_slot stats "req.delivered";
      retake_refused = Metrics.counter_slot stats "req.retake_refused";
      req_latency_us = Metrics.histogram_slot stats "req.latency_us";
      no_sync_dropped = Metrics.counter_slot stats "pkt.no_sync_dropped";
      records_created = Metrics.counter_slot stats "deltat.records_created";
      records_expired = Metrics.counter_slot stats "deltat.records_expired";
      packet_cpu =
        cost.Cost.packet_protocol_us + cost.Cost.conn_timer_us
        + cost.Cost.retrans_timer_us;
    }
  in
  let lifetime = Cost.record_expiry_us cost in
  let rng = Rng.split (Engine.rng engine) in
  let line ~delay ~fill_a ~fill_b = Delay_line.create ~tag:"proto" engine ~delay ~fill_a ~fill_b in
  let rec t =
    {
      engine;
      bus;
      mid;
      cost;
      lifetime;
      recorder;
      stats;
      nic = None;
      cb = None;
      conns = Hashtbl.create 8;
      reqs = Cli.create ();
      seen_discovers = Hashtbl.create 4;
      srv = Srv.create ();
      holders = Queue.create ();
      records = None;
      rx_shared = Rx.shared stats cost;
      window_env =
        {
          Window.engine;
          bus;
          cost;
          rng;
          stats;
          recorder;
          event = (fun kind -> event t kind);
          transmit =
            (fun peer ~seq ~run body -> emit t ~peer ~reliable:true ~seq ~run ~ack:(-1) body);
          ack_due = (fun peer -> ack_due t peer);
          shared = Window.shared stats;
        };
      tx_line = line ~delay:hot.packet_cpu ~fill_a:no_frame ~fill_b:();
      rx_line = line ~delay:hot.packet_cpu ~fill_a:Rx.none ~fill_b:None;
      probe_line = line ~delay:cost.Cost.probe_interval_us ~fill_a:Cli.none ~fill_b:();
      gc_line = line ~delay:lifetime ~fill_a:Srv.none ~fill_b:();
      data_line = line ~delay:lifetime ~fill_a:Srv.none ~fill_b:();
      srv_copy_line = line ~delay:0 ~fill_a:Srv.none ~fill_b:Wire.Ack;
      get_copy_line = line ~delay:0 ~fill_a:Cli.none ~fill_b:();
      discover_line = line ~delay:cost.Cost.discover_window_us ~fill_a:Cli.no_discovery ~fill_b:();
      answer_line = line ~delay:0 ~fill_a:0 ~fill_b:false;
      request_sent = (fun peer tid outcome -> request_sent t peer tid outcome);
      accept_sent = (fun peer tid outcome -> accept_sent t peer tid outcome);
      tid_causal = Hashtbl.create 16;
      hot;
    }
  in
  t

let set_callbacks t cb = t.cb <- Some cb

(* ---- reset ---------------------------------------------------------------- *)

(* The node forgets everything, and every line it has is emptied: nothing
   the old incarnation put on one acts after the reset, and none of its
   frames reaches the bus. *)
let reset t =
  Window.reset t.window_env;
  (match t.records with
   | Some r ->
     Delay_line.reset r.expiry_line;
     drop_spares r
   | None -> ());
  Delay_line.reset t.tx_line;
  Delay_line.reset t.rx_line;
  Delay_line.reset t.probe_line;
  Delay_line.reset t.gc_line;
  Delay_line.reset t.data_line;
  Delay_line.reset t.srv_copy_line;
  Delay_line.reset t.get_copy_line;
  Delay_line.reset t.discover_line;
  Delay_line.reset t.answer_line;
  Hashtbl.reset t.conns;
  Cli.reset t.reqs;
  Hashtbl.reset t.seen_discovers;
  Srv.reset t.srv;
  Hashtbl.reset t.tid_causal;
  Queue.clear t.holders;
  mark t ~peer:(-1) ~tid:Event.no_tid ~n:0 Event.Transport_reset

let shutdown t =
  reset t;
  Bus.detach t.bus ~mid:t.mid;
  t.nic <- None

let outstanding_requests t = Cli.outstanding t.reqs

let delay_lines t =
  let n = Delay_line.length in
  let expiry = match t.records with Some r -> n r.expiry_line | None -> 0 in
  [ ("tx", n t.tx_line); ("rx", n t.rx_line); ("probe", n t.probe_line); ("gc", n t.gc_line);
    ("data", n t.data_line); ("srv_copy", n t.srv_copy_line); ("get_copy", n t.get_copy_line);
    ("discover", n t.discover_line); ("answer", n t.answer_line); ("expiry", expiry) ]

let spare_records t = match t.records with Some r -> r.n_spares | None -> 0

let rtt_estimate_us t ~peer =
  Option.bind (Hashtbl.find_opt t.conns peer) (fun conn -> Window.rtt_estimate_us conn.tx)
