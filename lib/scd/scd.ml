module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Cost = Soda_base.Cost_model
module Scd_wire = Soda_proto.Scd_wire
module Recorder = Soda_obs.Recorder
module Metrics = Soda_obs.Metrics
module Event = Soda_obs.Event

let infinity_clock = max_int

(* ---- patterns ----------------------------------------------------------- *)

(* Stable per-(cluster, index) well-known patterns: an scd tag in the top
   bits, a cluster hash in the middle, the member index in the low byte.
   Each member advertises two entry points — its own pattern for client
   operations and the shared cluster pattern for peer FORWARD frames —
   and the handler branches on which one the request used. *)
let cluster_hash cluster = Hashtbl.hash cluster land 0x3FFFFFF

let member_pattern ~cluster ~index =
  Pattern.well_known ((0o6 lsl 37) lor (cluster_hash cluster lsl 8) lor (index land 0xFF))

let cluster_pattern ~cluster =
  Pattern.well_known ((0o6 lsl 37) lor (1 lsl 36) lor (cluster_hash cluster lsl 8))

(* ---- observability ------------------------------------------------------ *)

let recorder env = Kernel.recorder (Sodal.kernel env)
let metrics env = Recorder.metrics (recorder env)

let emit env kind =
  let r = recorder env in
  if Recorder.tracing r then
    Recorder.emit r
      ?ctx:(Kernel.causal_parent (Sodal.kernel env))
      ~time_us:(Sodal.now env) ~mid:(Sodal.my_mid env) kind

(* ---- operation codec ---------------------------------------------------- *)

(* Client -> member submit payload:
   [kind:1][origin:4][oseq:4][a:8][b:8]. *)

let op_write = 0
let op_snapshot = 1
let op_incr = 2
let op_cread = 3
let op_request_size = 25

let op_event = function
  | 0 -> Event.Scd_write
  | 1 -> Event.Scd_snapshot
  | 2 -> Event.Scd_incr
  | _ -> Event.Scd_cread

let encode_op ~kind ~origin ~oseq ~a ~b =
  let buf = Bytes.create op_request_size in
  Bytes.set buf 0 (Char.chr (kind land 0xFF));
  Bytes.set_int32_be buf 1 (Int32.of_int origin);
  Bytes.set_int32_be buf 5 (Int32.of_int oseq);
  Bytes.set_int64_be buf 9 (Int64.of_int a);
  Bytes.set_int64_be buf 17 (Int64.of_int b);
  buf

let decode_op buf =
  if Bytes.length buf <> op_request_size then None
  else
    Some
      ( Char.code (Bytes.get buf 0),
        Int32.to_int (Bytes.get_int32_be buf 1),
        Int32.to_int (Bytes.get_int32_be buf 5),
        Int64.to_int (Bytes.get_int64_be buf 9),
        Int64.to_int (Bytes.get_int64_be buf 17) )

(* Results: write -> applied timestamp (date, sd, sn); snapshot -> one
   (value, date, sd, sn) entry per register; incr -> 8-byte ack;
   cread -> the counter. *)

let write_result_size = 12
let reg_entry_size = 20
let int_result_size = 8

let encode_write_result ~date ~sd ~sn =
  let b = Bytes.create write_result_size in
  Bytes.set_int32_be b 0 (Int32.of_int date);
  Bytes.set_int32_be b 4 (Int32.of_int sd);
  Bytes.set_int32_be b 8 (Int32.of_int sn);
  b

let decode_write_result b =
  ( Int32.to_int (Bytes.get_int32_be b 0),
    Int32.to_int (Bytes.get_int32_be b 4),
    Int32.to_int (Bytes.get_int32_be b 8) )

let encode_int_result v =
  let b = Bytes.create int_result_size in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  b

let decode_int_result b = Int64.to_int (Bytes.get_int64_be b 0)

(* ---- member ------------------------------------------------------------- *)

(* One outgoing FORWARD frame; [of_attempts] counts the transfers that
   carried it, so a frame is dropped after [retry_cap] crash verdicts. *)
type out_frame = { of_frame : bytes; mutable of_attempts : int }

(* The per-peer send channel: a FIFO of FORWARD frames with at most one
   transfer (a prefix of the FIFO) in flight, in either direction. After
   a failed transfer the channel is [ch_retrying] until one gets through,
   and waits out a backoff deadline before each retry. *)
type channel = {
  ch_mid : int;
  ch_q : out_frame Queue.t;
  mutable ch_in_flight : bool;
  mutable ch_retrying : bool;
  mutable ch_ready_at : int;
}

(* A buffered quadruplet: one application message plus the clock vector
   built from peer FORWARDs ([infinity_clock] = not heard yet) and the
   number of its entries already heard. *)
type quad = {
  q_sd : int;
  q_sn : int;
  q_payload : Scd_wire.payload;
  q_cl : int array;
  mutable q_known : int;
}

(* A client operation this member proxies: created at submit (ticket
   handed out in the accept's reply argument), broadcast by the task,
   completed when its own message is delivered and applied here. *)
type pending = {
  p_ticket : int;
  p_kind : int;
  p_origin : int;
  p_oseq : int;
  p_a : int;
  p_b : int;
  (* Writes are two scd-broadcasts: a SYNC round first (so the proxy has
     applied every write that completed before this one started — its
     register date is then provably high enough), then the WRITE round.
     [p_phase] is 1 during the sync round, 2 during the write round, 0
     for single-round operations. *)
  mutable p_phase : int;
  mutable p_date : int;  (* write timestamp date, fixed at broadcast *)
  mutable p_msg : (int * int) option;
  mutable p_result : bytes option;
  mutable p_waiter : Types.requester_signature option;  (* parked collect GET *)
  p_start_us : int;
}

type member = {
  member_pat : Pattern.t;
  cluster_pat : Pattern.t;
  index : int;
  n : int;
  regs : int;
  mutable clock : int;  (* sn of the next FORWARD this member sends *)
  (* Per forwarder: the stamp of its next FORWARD to process, and the
     ones that arrived ahead of it, in stamp order (see [process_forward]) *)
  next_snf : int array;
  held : Scd_wire.forward list array;
  mutable n_held : int;
  buffer : (int * int, quad) Hashtbl.t;
  delivered : (int * int, unit) Hashtbl.t;
  (* snapshot object *)
  reg_v : int array;
  reg_ts : (int * int * int) array;  (* (date, sd, sn), lexicographic *)
  (* counter *)
  mutable counter : int;
  applied_incrs : (int * int, unit) Hashtbl.t;  (* (origin, oseq) *)
  (* proxied client operations *)
  mutable next_ticket : int;
  ops : (int, pending) Hashtbl.t;
  by_msg : (int * int, pending) Hashtbl.t;
  (* work queues filled by the handler, drained by the task *)
  inbox : Scd_wire.forward Queue.t;
  op_inbox : int Queue.t;
  mutable candidates : int;  (* buffered quads with a majority of known clocks *)
  (* per-peer outgoing FORWARD channels (see the echo path below) *)
  chans : channel array;
  mutable pump_cursor : int;
  mutable slot_busy : bool;  (* our one transfer in flight to a healthy peer *)
  mutable reply : bytes;  (* that transfer's get buffer: the peer's backlog for us *)
  mutable rng : Rng.t;  (* retry jitter; split from the engine at each boot *)
  mutable delivery_log : (int * int) list list;  (* newest first *)
  mutable nbroadcasts : int;
  mutable bcast_sns : int list;  (* sn of every broadcast we initiated *)
}

let member ~cluster ~index ~mids ~regs =
  let n = List.length mids in
  if n = 0 then invalid_arg "Scd.member: empty cluster";
  if index < 0 || index >= n then invalid_arg "Scd.member: index out of range";
  if regs < 1 then invalid_arg "Scd.member: need at least one register";
  {
    member_pat = member_pattern ~cluster ~index;
    cluster_pat = cluster_pattern ~cluster;
    index;
    n;
    regs;
    clock = 0;
    next_snf = Array.make n 0;
    held = Array.make n [];
    n_held = 0;
    buffer = Hashtbl.create 32;
    candidates = 0;
    delivered = Hashtbl.create 64;
    reg_v = Array.make regs 0;
    reg_ts = Array.make regs (0, -1, -1);
    counter = 0;
    applied_incrs = Hashtbl.create 32;
    next_ticket = 1;
    ops = Hashtbl.create 16;
    by_msg = Hashtbl.create 16;
    inbox = Queue.create ();
    op_inbox = Queue.create ();
    chans =
      Array.of_list
        (List.filteri (fun i _ -> i <> index) mids
        |> List.map (fun mid ->
               { ch_mid = mid; ch_q = Queue.create (); ch_in_flight = false;
                 ch_retrying = false; ch_ready_at = 0 }));
    pump_cursor = 0;
    slot_busy = false;
    reply = Bytes.empty;
    rng = Rng.create ~seed:index;
    delivery_log = [];
    nbroadcasts = 0;
    bcast_sns = [];
  }

let deliveries m = List.rev m.delivery_log
let registers m = Array.init m.regs (fun r -> (m.reg_v.(r), m.reg_ts.(r)))
let counter_value m = m.counter
let broadcasts_made m = m.nbroadcasts
let broadcast_sns m = List.rev m.bcast_sns
let retry_depth m = Array.fold_left (fun acc ch -> acc + Queue.length ch.ch_q) 0 m.chans
let held_forwards m = m.n_held

let majority m = (m.n / 2) + 1

(* ---- echo path ---------------------------------------------------------- *)

(* The delivery condition reasons about per-sender clocks, so the FORWARD
   stream from one member to one peer must stay FIFO. Every send therefore
   goes through the peer's channel: [echo] only enqueues, and a transfer
   carries the longest FIFO prefix of the queue that fits the kernel's
   buffer ([max_data_bytes]). A channel has at most one transfer in flight
   and pops its prefix only once the transfer is known delivered.

   Transfers are clocked by completions, not timers. A member keeps one
   transfer in flight to a healthy peer (the slot): [pump] launches the
   next channel with a backlog, round robin, in the wake-up of the
   previous transfer's completion, so a batch is whatever queued
   meanwhile and the bus carries at most one such transfer per member.
   Each launch is an EXCHANGE: it puts our prefix and gets back whatever
   the peer's idle channel to us holds (the peer's handler claims it
   for the reply), so one transfer can drain both directions.

   A crash verdict backs the channel off 200-300 ms (the transport does
   not retry after a verdict) and drops a FORWARD after [retry_cap]
   verdicts. A channel that is retrying launches outside the slot, so a
   crashed or partitioned peer never stalls the others. *)

let retry_cap = 25
let retry_spacing_us = 200_000

let echo m (fwd : Scd_wire.forward) =
  let frame = Scd_wire.encode fwd in
  Array.iter (fun ch -> Queue.add { of_frame = frame; of_attempts = 0 } ch.ch_q) m.chans

(* Take the longest FIFO prefix of [ch]'s queue that fits [room] bytes
   into one transfer: the channel is in flight from here until [settle].
   Returns the prefix length and its frames, concatenated. *)
let claim ch ~room =
  let k = ref 0 and size = ref 0 in
  (try
     Queue.iter
       (fun f ->
         let s = !size + Bytes.length f.of_frame in
         if s > room then raise_notrace Exit;
         incr k;
         size := s)
       ch.ch_q
   with Exit -> ());
  let batch = Bytes.create !size in
  let i = ref 0 and off = ref 0 in
  (try
     Queue.iter
       (fun f ->
         if !i = !k then raise_notrace Exit;
         Bytes.blit f.of_frame 0 batch !off (Bytes.length f.of_frame);
         off := !off + Bytes.length f.of_frame;
         incr i)
       ch.ch_q
   with Exit -> ());
  ch.ch_in_flight <- true;
  (!k, batch)

(* The claimed prefix went out: the counters count FORWARD messages, not
   transfers. *)
let count_sent env ch k =
  let i = ref 0 and retried = ref 0 in
  (try
     Queue.iter
       (fun f ->
         if !i = k then raise_notrace Exit;
         f.of_attempts <- f.of_attempts + 1;
         if f.of_attempts > 1 then incr retried;
         incr i)
       ch.ch_q
   with Exit -> ());
  Metrics.add (metrics env) "scd.forwards" k;
  if !retried > 0 then Metrics.add (metrics env) "scd.retry_frames" !retried

(* The one end of a transfer, in either direction: a delivered prefix is
   popped; a failed one stays queued (frames behind the head may have had
   fewer attempts) and the channel backs off. *)
let settle env m ch k ~delivered =
  ch.ch_in_flight <- false;
  if delivered then begin
    for _ = 1 to k do
      ignore (Queue.pop ch.ch_q)
    done;
    ch.ch_retrying <- false
  end
  else begin
    while (not (Queue.is_empty ch.ch_q)) && (Queue.peek ch.ch_q).of_attempts >= retry_cap do
      ignore (Queue.pop ch.ch_q);
      Metrics.incr (metrics env) "scd.retry_dropped"
    done;
    ch.ch_retrying <- true;
    ch.ch_ready_at <- Sodal.now env + retry_spacing_us + Rng.int m.rng (retry_spacing_us / 2)
  end

let take_batch env m batch =
  match Scd_wire.decode batch with
  | Ok fwds -> List.iter (fun fwd -> Queue.add fwd m.inbox) fwds
  | Error _ -> Metrics.incr (metrics env) "scd.bad_frame"

let launchable m ~now ch =
  (not ch.ch_in_flight)
  && (not (Queue.is_empty ch.ch_q))
  && if ch.ch_retrying then now >= ch.ch_ready_at else not m.slot_busy

(* Launch [ch]'s prefix; false when the kernel has no request slot left
   (a completion will free one and wake the task). *)
let launch env m ch =
  let room = (Kernel.cost (Sodal.kernel env)).Cost.max_data_bytes in
  let k, batch = claim ch ~room in
  let healthy = not ch.ch_retrying in
  if healthy then begin
    m.slot_busy <- true;
    if Bytes.length m.reply <> room then m.reply <- Bytes.create room
  end;
  (* the slot's transfers share one reply buffer; a retry gets its own *)
  let into = if healthy then m.reply else Bytes.create room in
  let server = Sodal.server ~mid:ch.ch_mid ~pattern:m.cluster_pat in
  match Sodal.exchange env server ~arg:0 batch ~into with
  | exception Sodal.Too_many_requests ->
    ch.ch_in_flight <- false;
    if healthy then m.slot_busy <- false;
    false
  | tid ->
    count_sent env ch k;
    Sodal.on_completion_of env tid (fun c ->
        if healthy then m.slot_busy <- false;
        match c.Sodal.status with
        | Sodal.Comp_ok | Sodal.Comp_rejected ->
          settle env m ch k ~delivered:true;
          if c.Sodal.get_transferred > 0 then
            take_batch env m (Bytes.sub into 0 c.Sodal.get_transferred)
        | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> settle env m ch k ~delivered:false);
    true

let rec pump env m =
  let len = Array.length m.chans in
  let now = Sodal.now env in
  let rec next i =
    if i = len then None
    else
      let j = (m.pump_cursor + i) mod len in
      if launchable m ~now m.chans.(j) then begin
        m.pump_cursor <- (j + 1) mod len;
        Some m.chans.(j)
      end
      else next (i + 1)
  in
  match next 0 with
  | Some ch -> if launch env m ch then pump env m
  | None -> ()

(* Sleep until handler activity: a completion frees the slot and wakes
   us, and so do arriving FORWARDs and operations. Only a channel waiting
   out a retry backoff needs a timer. *)
let sleep env m =
  let now = Sodal.now env in
  let wake =
    Array.fold_left
      (fun t ch ->
        if ch.ch_retrying && (not ch.ch_in_flight) && not (Queue.is_empty ch.ch_q) then
          min t ch.ch_ready_at
        else t)
      max_int m.chans
  in
  if wake = max_int || wake <= now then Sodal.idle env else Sodal.idle_for env (wake - now)

(* ---- the SCD algorithm -------------------------------------------------- *)

(* Entries only ever go from unknown to known (then only lower), so
   [q_known] counts each entry once and [m.candidates] counts the quads
   that reached a majority. *)
let set_clock m q x v =
  if q.q_cl.(x) = infinity_clock then begin
    q.q_known <- q.q_known + 1;
    if q.q_known = majority m then m.candidates <- m.candidates + 1
  end;
  q.q_cl.(x) <- min q.q_cl.(x) v

let fresh_quad m ~sd ~sn payload =
  { q_sd = sd; q_sn = sn; q_payload = payload; q_cl = Array.make m.n infinity_clock;
    q_known = 0 }

(* First sight of a message: buffer it with a fresh clock vector and echo
   our own FORWARD. Later sights, from other forwarders, only lower their
   clock entries. *)
let take_forward env m (fwd : Scd_wire.forward) =
  let key = (fwd.sd, fwd.sn) in
  if Hashtbl.mem m.delivered key then Metrics.incr (metrics env) "scd.stale_forward"
  else
    match Hashtbl.find_opt m.buffer key with
    | Some q -> set_clock m q fwd.f fwd.snf
    | None ->
      let q = fresh_quad m ~sd:fwd.sd ~sn:fwd.sn fwd.payload in
      set_clock m q fwd.f fwd.snf;
      Hashtbl.replace m.buffer key q;
      let snf = m.clock in
      m.clock <- m.clock + 1;
      set_clock m q m.index snf;
      echo m { fwd with f = m.index; snf }

(* A FORWARD that arrived ahead of its forwarder's next stamp waits in
   stamp order; a second copy of a held one is a repeat. *)
let hold m (fwd : Scd_wire.forward) =
  let l = m.held.(fwd.f) in
  if not (List.exists (fun (h : Scd_wire.forward) -> h.snf = fwd.snf) l) then begin
    m.held.(fwd.f) <- List.merge (fun (a : Scd_wire.forward) b -> compare a.snf b.snf) [ fwd ] l;
    m.n_held <- m.n_held + 1
  end

(* The clock reasoning needs each forwarder's stamps in the order it made
   them. A forwarder stamps 0, 1, 2, ... and queues every FORWARD on
   every channel, so the stream from it carries each stamp exactly once,
   in a row, whichever path (its transfer or its reply to ours) brings
   each batch. So FIFO is enforced here, where the paths meet: a stamp
   below the next one is a repeat (a retried or duplicated transfer) and
   is dropped, one above it is held until the gap fills, and the next
   one is taken, then the held ones that follow it. The in-order path
   reads one array slot and allocates nothing. *)
let rec process_forward env m (fwd : Scd_wire.forward) =
  if fwd.sd < 0 || fwd.sd >= m.n || fwd.f < 0 || fwd.f >= m.n then
    Metrics.incr (metrics env) "scd.bad_frame"
  else begin
    let next = m.next_snf.(fwd.f) in
    if fwd.snf > next then hold m fwd
    else if fwd.snf = next then begin
      m.next_snf.(fwd.f) <- next + 1;
      take_forward env m fwd;
      match m.held.(fwd.f) with
      | h :: rest when h.snf = next + 1 ->
        m.held.(fwd.f) <- rest;
        m.n_held <- m.n_held - 1;
        process_forward env m h
      | _ -> ()
    end
  end

let apply m (q : quad) =
  match q.q_payload with
  | Scd_wire.Write { reg; value; date; writer = _ } ->
    if reg >= 0 && reg < m.regs then begin
      (* max-wins on (date, sd, sn): commutative, so the order of applies
         inside one delivered set does not matter *)
      let ts = (date, q.q_sd, q.q_sn) in
      if ts > m.reg_ts.(reg) then begin
        m.reg_ts.(reg) <- ts;
        m.reg_v.(reg) <- value
      end
    end
  | Scd_wire.Incr { delta; origin; oseq } ->
    if not (Hashtbl.mem m.applied_incrs (origin, oseq)) then begin
      Hashtbl.replace m.applied_incrs (origin, oseq) ();
      m.counter <- m.counter + delta
    end
  | Scd_wire.Sync -> ()

let result_of_op m (p : pending) =
  if p.p_kind = op_write then
    let sd, sn = match p.p_msg with Some (sd, sn) -> (sd, sn) | None -> (m.index, -1) in
    encode_write_result ~date:p.p_date ~sd ~sn
  else if p.p_kind = op_snapshot then begin
    let b = Bytes.create (m.regs * reg_entry_size) in
    for r = 0 to m.regs - 1 do
      let date, sd, sn = m.reg_ts.(r) in
      let off = r * reg_entry_size in
      Bytes.set_int64_be b off (Int64.of_int m.reg_v.(r));
      Bytes.set_int32_be b (off + 8) (Int32.of_int date);
      Bytes.set_int32_be b (off + 12) (Int32.of_int sd);
      Bytes.set_int32_be b (off + 16) (Int32.of_int sn)
    done;
    b
  end
  else if p.p_kind = op_cread then encode_int_result m.counter
  else encode_int_result 0

let drop_op m (p : pending) =
  Hashtbl.remove m.ops p.p_ticket;
  match p.p_msg with Some key -> Hashtbl.remove m.by_msg key | None -> ()

(* The operation's message was delivered (or an increment was recognised
   as already applied): compute the reply from the just-updated local
   state and complete a parked collect GET if one is waiting. *)
let complete_op env m (p : pending) =
  p.p_result <- Some (result_of_op m p);
  let ms = metrics env in
  Metrics.incr ms "scd.ops";
  Metrics.observe ms "scd.op.us" (Sodal.now env - p.p_start_us);
  emit env
    (Event.Scd_op
       { op = op_event p.p_kind; origin = p.p_origin; oseq = p.p_oseq; ok = true;
         elapsed_us = Sodal.now env - p.p_start_us });
  match (p.p_waiter, p.p_result) with
  | Some asker, Some data -> (
    p.p_waiter <- None;
    match Sodal.accept_get env asker ~arg:0 ~data with
    | Types.Accept_success -> drop_op m p
    | Types.Accept_cancelled | Types.Accept_crashed ->
      (* asker died; keep the result for a failover re-collect *)
      ())
  | _ -> ()

let deliver_set env m quads =
  let quads =
    List.sort (fun a b -> compare (a.q_sd, a.q_sn) (b.q_sd, b.q_sn)) quads
  in
  let ids = List.map (fun q -> (q.q_sd, q.q_sn)) quads in
  m.candidates <- m.candidates - List.length quads;
  List.iter
    (fun q ->
      Hashtbl.remove m.buffer (q.q_sd, q.q_sn);
      Hashtbl.replace m.delivered (q.q_sd, q.q_sn) ();
      apply m q)
    quads;
  m.delivery_log <- ids :: m.delivery_log;
  let ms = metrics env in
  Metrics.incr ms "scd.deliveries";
  Metrics.observe ms "scd.set_size" (List.length ids);
  emit env (Event.Scd_deliver { size = List.length ids; pending = Hashtbl.length m.buffer });
  (* complete operations whose own message is in this set (after every
     apply, so a snapshot/read sees the whole set's effect) *)
  List.iter
    (fun key ->
      match Hashtbl.find_opt m.by_msg key with
      | Some p when p.p_result = None ->
        if p.p_kind = op_write && p.p_phase = 1 then begin
          (* sync round done: the proxy is now up to date; run the write
             round with a provably fresh date *)
          p.p_phase <- 2;
          Hashtbl.remove m.by_msg key;
          p.p_msg <- None;
          Queue.add p.p_ticket m.op_inbox
        end
        else complete_op env m p
      | _ -> ())
    ids

(* Delivery condition: a buffered message whose clock is known for a
   majority is a candidate; a candidate q must wait while some buffered
   non-candidate q' is not provably after it (it might still have to join
   q's set or precede it). [q < q'] iff a majority of clock entries are
   strictly smaller; unknown entries (infinity on both sides) never count.
   With no candidate at all nothing can be delivered. *)
let rec try_deliver env m =
  if m.candidates > 0 then begin
    let maj = majority m in
    let prec q q' =
      let c = ref 0 in
      for x = 0 to m.n - 1 do
        if q.q_cl.(x) < q'.q_cl.(x) then incr c
      done;
      !c >= maj
    in
    let rec ready cands rest =
      match List.partition (fun q -> List.exists (fun q' -> not (prec q q')) rest) cands with
      | [], cands -> cands
      | blocked, cands -> ready cands (blocked @ rest)
    in
    let all = Hashtbl.fold (fun _ q acc -> q :: acc) m.buffer [] in
    let cands, rest = List.partition (fun q -> q.q_known >= maj) all in
    match ready cands rest with
    | [] -> ()
    | set ->
      deliver_set env m set;
      try_deliver env m
  end

(* ---- proxied operations ------------------------------------------------- *)

let start_op env m ticket =
  match Hashtbl.find_opt m.ops ticket with
  | None -> ()
  | Some p ->
    if p.p_kind = op_incr && Hashtbl.mem m.applied_incrs (p.p_origin, p.p_oseq) then
      (* failover retry of an increment that already went through: ack
         without broadcasting a second application *)
      complete_op env m p
    else begin
      let payload =
        if p.p_kind = op_write && p.p_phase = 2 then begin
          let date, _, _ = m.reg_ts.(p.p_a) in
          p.p_date <- date + 1;
          Scd_wire.Write { reg = p.p_a; value = p.p_b; date = date + 1; writer = m.index }
        end
        else if p.p_kind = op_incr then
          Scd_wire.Incr { delta = p.p_a; origin = p.p_origin; oseq = p.p_oseq }
        else Scd_wire.Sync
      in
      let sn = m.clock in
      m.clock <- m.clock + 1;
      let key = (m.index, sn) in
      let q = fresh_quad m ~sd:m.index ~sn payload in
      set_clock m q m.index sn;
      Hashtbl.replace m.buffer key q;
      p.p_msg <- Some key;
      Hashtbl.replace m.by_msg key p;
      m.nbroadcasts <- m.nbroadcasts + 1;
      m.bcast_sns <- sn :: m.bcast_sns;
      Metrics.incr (metrics env) "scd.broadcasts";
      emit env
        (Event.Scd_broadcast { sd = m.index; sn; payload = Scd_wire.payload_kind payload });
      echo m { Scd_wire.sd = m.index; sn; f = m.index; snf = sn; payload }
    end

(* ---- spec --------------------------------------------------------------- *)

let valid_op m kind a = kind >= op_write && kind <= op_cread
                        && (kind <> op_write || (a >= 0 && a < m.regs))

let handle_request m env info =
  if Pattern.equal info.Sodal.pattern m.cluster_pat then
    (* peer FORWARDs: accept in the handler (bounded) so a peer's transfer
       never waits on our task; the task drains the inbox. A transfer is
       a prefix of the peer's FIFO channel, so in-order entries keep the
       channel FIFO. The reply carries our idle channel's backlog for
       that peer, popped only once our kernel knows it arrived. *)
    if info.Sodal.put_size > 0 then begin
      let into = Bytes.create info.Sodal.put_size in
      let back =
        if info.Sodal.get_size = 0 then None
        else
          Array.find_opt
            (fun ch ->
              ch.ch_mid = info.Sodal.asker.Types.rq_mid
              && (not ch.ch_in_flight)
              && not (Queue.is_empty ch.ch_q))
            m.chans
      in
      let k, data =
        match back with
        | Some ch ->
          let k, data = claim ch ~room:info.Sodal.get_size in
          count_sent env ch k;
          (k, data)
        | None -> (0, Bytes.empty)
      in
      let status, got = Sodal.accept_current_exchange env ~arg:0 ~into ~data in
      Option.iter
        (fun ch -> settle env m ch k ~delivered:(status = Types.Accept_success))
        back;
      (* Put data that arrived is kept even when the accept then fails:
         the peer may have had our reply and popped its prefix, and if it
         did not, its retry only repeats FORWARDs we already hold. *)
      if got > 0 then
        take_batch env m (if got = Bytes.length into then into else Bytes.sub into 0 got)
    end
    else Sodal.reject env
  else if info.Sodal.put_size = op_request_size && info.Sodal.get_size = 0 then begin
    (* submit: hand out a ticket in the accept's reply argument; the task
       broadcasts the operation *)
    let ticket = m.next_ticket in
    m.next_ticket <- m.next_ticket + 1;
    let into = Bytes.create op_request_size in
    let status, got = Sodal.accept_current_put env ~arg:ticket ~into in
    match status with
    | Types.Accept_success when got = op_request_size -> (
      match decode_op into with
      | Some (kind, origin, oseq, a, b) when valid_op m kind a ->
        let p =
          { p_ticket = ticket; p_kind = kind; p_origin = origin; p_oseq = oseq; p_a = a;
            p_b = b; p_phase = (if kind = op_write then 1 else 0); p_date = 0;
            p_msg = None; p_result = None; p_waiter = None; p_start_us = Sodal.now env }
        in
        Hashtbl.replace m.ops ticket p;
        Queue.add ticket m.op_inbox
      | Some _ | None -> Metrics.incr (metrics env) "scd.bad_op")
    | Types.Accept_success | Types.Accept_cancelled | Types.Accept_crashed -> ()
  end
  else if info.Sodal.get_size > 0 && info.Sodal.put_size = 0 then begin
    (* collect: answer now if the operation is done, else park the asker
       until its message is scd-delivered *)
    match Hashtbl.find_opt m.ops info.Sodal.arg with
    | Some p -> (
      match p.p_result with
      | Some data -> (
        match Sodal.accept_current_get env ~arg:0 ~data with
        | Types.Accept_success -> drop_op m p
        | Types.Accept_cancelled | Types.Accept_crashed -> ())
      | None -> p.p_waiter <- Some info.Sodal.asker)
    | None -> Sodal.reject env
  end
  else Sodal.reject env

let member_task m env =
  (* Delivery depends only on the buffered clock vectors, which only
     [process_forward] and [start_op] change; a new incarnation may find
     a buffer its predecessor's crash left undelivered. *)
  try_deliver env m;
  while true do
    let worked = ref false in
    while not (Queue.is_empty m.inbox) do
      worked := true;
      process_forward env m (Queue.pop m.inbox)
    done;
    while not (Queue.is_empty m.op_inbox) do
      worked := true;
      start_op env m (Queue.pop m.op_inbox)
    done;
    if !worked then try_deliver env m;
    pump env m;
    (* Re-check the inboxes before sleeping: [pump] awaits inside
       [Sodal.exchange]'s trap, during which the handler may have
       accepted new frames — their wake fired while we were blocked, not
       idle, so sleeping on them would strand them (a lost wakeup). *)
    if Queue.is_empty m.inbox && Queue.is_empty m.op_inbox then sleep env m
  done

let member_spec m =
  {
    Sodal.default_spec with
    init =
      (fun env ~parent:_ ->
        m.rng <- Rng.split (Engine.rng (Kernel.engine (Sodal.kernel env)));
        (* completions registered by the previous incarnation died with
           its env: clear the in-flight marks so the heads are re-sent
           (duplicate FORWARDs are idempotent at the receiver) *)
        m.slot_busy <- false;
        Array.iter
          (fun ch ->
            ch.ch_in_flight <- false;
            ch.ch_retrying <- false;
            ch.ch_ready_at <- 0)
          m.chans;
        Sodal.advertise env m.member_pat;
        Sodal.advertise env m.cluster_pat);
    on_request = (fun env info -> handle_request m env info);
    task = (fun env -> member_task m env);
  }

(* ---- client ------------------------------------------------------------- *)

type t = {
  cluster : string;
  n : int;
  c_regs : int;
  members : Types.server_signature array;
  mutable cur : int;
  origin : int;
  mutable oseq : int;
  attempts : int;
  rng : Rng.t;
}

(* Capped jittered backoff between failovers and re-collects. *)
let backoff_base_us = 20_000
let backoff_cap_us = 500_000

type error = Unreachable

type ts = int * int * int

let handle ?(attempts = 12) env ~cluster ~mids ~regs =
  let n = List.length mids in
  if n = 0 then invalid_arg "Scd.handle: empty cluster";
  let members =
    Array.of_list
      (List.mapi
         (fun i mid -> Sodal.server ~mid ~pattern:(member_pattern ~cluster ~index:i))
         mids)
  in
  {
    cluster;
    n;
    c_regs = regs;
    members;
    cur = Sodal.my_mid env mod n;
    origin = Sodal.my_mid env;
    oseq = 0;
    attempts;
    rng = Rng.split (Engine.rng (Kernel.engine (Sodal.kernel env)));
  }

(* One operation: submit (PUT, accepted immediately with a ticket), then
   collect (GET with the ticket, parked at the member until the
   operation's message is delivered). Crashed/unadvertised members cause
   a failover to the next member with capped jittered backoff; increments
   stay exactly-once because members dedupe them by (origin, oseq). *)
let do_op env t ~kind ~a ~b ~get_size =
  t.oseq <- t.oseq + 1;
  let oseq = t.oseq in
  let t0 = Sodal.now env in
  let req = encode_op ~kind ~origin:t.origin ~oseq ~a ~b in
  let backoff k = Rng.backoff t.rng ~base_us:backoff_base_us ~cap_us:backoff_cap_us k in
  let rec attempt k =
    let sv = t.members.(t.cur) in
    let fail_over () =
      if k >= t.attempts then begin
        Metrics.incr (metrics env) "scd.unreachable";
        emit env
          (Event.Scd_op
             { op = op_event kind; origin = t.origin; oseq; ok = false;
               elapsed_us = Sodal.now env - t0 });
        Error Unreachable
      end
      else begin
        Metrics.incr (metrics env) "scd.failovers";
        t.cur <- (t.cur + 1) mod t.n;
        Sodal.compute env (backoff (k - 1));
        attempt (k + 1)
      end
    in
    let c = Sodal.b_put env sv ~arg:0 req in
    match c.Sodal.status with
    | Sodal.Comp_ok ->
      let ticket = c.Sodal.reply_arg in
      let into = Bytes.create get_size in
      let rec collect j =
        let g = Sodal.b_get env sv ~arg:ticket ~into in
        match g.Sodal.status with
        | Sodal.Comp_ok when g.Sodal.get_transferred = get_size ->
          Metrics.incr (metrics env) "scd.client_ops";
          Ok into
        | Sodal.Comp_crashed when j < t.attempts ->
          (* A collect parked past the transport's Delta-t draws a crash
             verdict even when the member is alive and the operation
             merely slow (large clusters: one broadcast is n(n-1) frames
             on the shared bus). Re-collect the same ticket — the member
             keeps the result when a parked asker's transaction aborts —
             and only fail over to a fresh submit when the ticket is
             really gone (rejected) or the retries run out. *)
          Metrics.incr (metrics env) "scd.recollects";
          Sodal.compute env (backoff 0);
          collect (j + 1)
        | Sodal.Comp_ok | Sodal.Comp_rejected | Sodal.Comp_crashed
        | Sodal.Comp_unadvertised ->
          fail_over ()
      in
      collect 1
    | Sodal.Comp_rejected | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> fail_over ()
  in
  attempt 1

let write env t ~reg v =
  if reg < 0 || reg >= t.c_regs then invalid_arg "Scd.write: register out of range";
  match do_op env t ~kind:op_write ~a:reg ~b:v ~get_size:write_result_size with
  | Ok b -> Ok (decode_write_result b)
  | Error e -> Error e

let snapshot env t =
  match do_op env t ~kind:op_snapshot ~a:0 ~b:0 ~get_size:(t.c_regs * reg_entry_size) with
  | Ok b ->
    Ok
      (Array.init t.c_regs (fun r ->
           let off = r * reg_entry_size in
           ( Int64.to_int (Bytes.get_int64_be b off),
             ( Int32.to_int (Bytes.get_int32_be b (off + 8)),
               Int32.to_int (Bytes.get_int32_be b (off + 12)),
               Int32.to_int (Bytes.get_int32_be b (off + 16)) ) )))
  | Error e -> Error e

let incr env t ~delta =
  match do_op env t ~kind:op_incr ~a:delta ~b:0 ~get_size:int_result_size with
  | Ok _ -> Ok ()
  | Error e -> Error e

let cread env t =
  match do_op env t ~kind:op_cread ~a:0 ~b:0 ~get_size:int_result_size with
  | Ok b -> Ok (decode_int_result b)
  | Error e -> Error e
