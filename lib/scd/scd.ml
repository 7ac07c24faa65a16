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

let tracing env = Recorder.tracing (recorder env)

(* Callers test [tracing] first, so an untraced run builds no event. *)
let emit env kind =
  Recorder.emit (recorder env)
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

module Itbl = Hashtbl.Make (Int)

(* A message identity (sd, sn) or an increment's (origin, oseq) as one
   int: [sd] fits u16 and [sn] i32 by the wire layout, and an origin is a
   machine id, far below 2^30. *)
let key hi lo = (hi lsl 32) lor (lo land 0xFFFF_FFFF)
let key_hi k = k asr 32
let key_lo k = ((k land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

(* The send channel to member [ch_peer]: a cursor into the out-log (see
   the echo path below), acknowledged below [ch_acked], with at most one
   transfer in flight, in either direction, carrying the first
   [ch_claimed] frames from [ch_head]; those below [ch_carried] some
   transfer carried. After a failed transfer it is [ch_retrying] until
   one gets through, backing off to [ch_ready_at], with replies in
   [ch_reply]. [ch_gap_sent]: the gap report our last launch carried. *)
type channel = {
  ch_mid : int;
  ch_peer : int;
  ch_server : Types.server_signature;
  mutable ch_head : int;
  mutable ch_acked : int;
  mutable ch_gap_sent : int;
  mutable ch_claimed : int;
  mutable ch_carried : int;
  mutable ch_in_flight : bool;
  mutable ch_retrying : bool;
  mutable ch_ready_at : int;
  mutable ch_reply : bytes;
}

(* A buffered quadruplet: one application message, our own FORWARD of
   it (the payload is read from it in place when the message is
   applied), the clock vector built from peer FORWARDs ([infinity_clock]
   = not heard yet), the number of its entries already heard, and its
   slot in the member's [bufq]. *)
type quad = {
  q_sd : int;
  q_sn : int;
  q_frame : bytes;
  q_cl : int array;
  mutable q_known : int;
  mutable q_slot : int;
}

let no_quad = { q_sd = 0; q_sn = 0; q_frame = Bytes.empty; q_cl = [||]; q_known = 0; q_slot = -1 }

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
  mutable p_sn : int;  (* sn of the round's own message; -1 before it is sent *)
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
  (* Per forwarder: the stamp of its next FORWARD to take, and where one
     ahead of it was last dropped: the gap mark is set while they are
     equal (see [process_forward]) *)
  next_snf : int array;
  gap_at : int array;
  (* buffered quads by message key, and as an array: slots [0, nbuf) of
     [bufq]; [scan] is [try_deliver]'s work array *)
  buffer : quad Itbl.t;
  mutable bufq : quad array;
  mutable nbuf : int;
  mutable scan : quad array;
  delivered : unit Itbl.t;
  (* snapshot object: per register its value and timestamp
     (date, sd, sn), compared lexicographically *)
  reg_v : int array;
  reg_date : int array;
  reg_sd : int array;
  reg_sn : int array;
  (* counter *)
  mutable counter : int;
  applied_incrs : unit Itbl.t;  (* by (origin, oseq) key *)
  (* proxied client operations, by ticket and by own message key *)
  mutable next_ticket : int;
  ops : pending Itbl.t;
  by_msg : pending Itbl.t;
  (* work queues filled by the handler, drained by the task: checked
     FORWARD batches, and tickets *)
  inbox : bytes Queue.t;
  op_inbox : int Queue.t;
  mutable candidates : int;  (* buffered quads with a majority of known clocks *)
  (* the out-log: frame [i] (stamp [i]) at slot [i land (cap - 1)] of
     [out] for [out_lo <= i < out_hi], with the number of peers that
     have not acknowledged it in [out_left] *)
  mutable out : bytes array;
  mutable out_left : int array;
  mutable out_lo : int;
  mutable out_hi : int;
  chans : channel array;
  mutable pump_cursor : int;
  mutable slot_busy : bool;  (* our one transfer in flight to a healthy peer *)
  mutable reply : bytes;  (* that transfer's get buffer: the peer's backlog for us *)
  mutable rng : Rng.t;  (* retry jitter; split from the engine at each boot *)
  mutable delivery_log : int array list;  (* message keys per set, newest first *)
  mutable bcast_sns : int list;  (* sn of every broadcast we initiated *)
}

let out_capacity = 16

let member ~cluster ~index ~mids ~regs =
  let n = List.length mids in
  if n = 0 then invalid_arg "Scd.member: empty cluster";
  if index < 0 || index >= n then invalid_arg "Scd.member: index out of range";
  if regs < 1 then invalid_arg "Scd.member: need at least one register";
  let cluster_pat = cluster_pattern ~cluster in
  {
    member_pat = member_pattern ~cluster ~index;
    cluster_pat;
    index;
    n;
    regs;
    clock = 0;
    next_snf = Array.make n 0;
    gap_at = Array.make n (-1);
    buffer = Itbl.create 32;
    bufq = Array.make 32 no_quad;
    nbuf = 0;
    scan = [||];
    candidates = 0;
    delivered = Itbl.create 64;
    reg_v = Array.make regs 0;
    reg_date = Array.make regs 0;
    reg_sd = Array.make regs (-1);
    reg_sn = Array.make regs (-1);
    counter = 0;
    applied_incrs = Itbl.create 32;
    next_ticket = 1;
    ops = Itbl.create 16;
    by_msg = Itbl.create 16;
    inbox = Queue.create ();
    op_inbox = Queue.create ();
    out = Array.make out_capacity Bytes.empty;
    out_left = Array.make out_capacity 0;
    out_lo = 0;
    out_hi = 0;
    chans =
      Array.init (n - 1) (fun k ->
          let peer = if k < index then k else k + 1 in
          let mid = List.nth mids peer in
          { ch_mid = mid; ch_peer = peer; ch_server = Sodal.server ~mid ~pattern:cluster_pat;
            ch_head = 0; ch_acked = 0; ch_gap_sent = 0; ch_claimed = 0; ch_carried = 0;
            ch_in_flight = false; ch_retrying = false; ch_ready_at = 0; ch_reply = Bytes.empty });
    pump_cursor = 0;
    slot_busy = false;
    reply = Bytes.empty;
    rng = Rng.create ~seed:index;
    delivery_log = [];
    bcast_sns = [];
  }

let deliveries m =
  List.rev_map (fun ids -> Array.fold_right (fun k l -> (key_hi k, key_lo k) :: l) ids []) m.delivery_log

let registers m =
  Array.init m.regs (fun r -> (m.reg_v.(r), (m.reg_date.(r), m.reg_sd.(r), m.reg_sn.(r))))

let counter_value m = m.counter
let broadcast_sns m = List.rev m.bcast_sns
let retry_depth m = Array.fold_left (fun acc ch -> acc + m.out_hi - ch.ch_head) 0 m.chans
let next_stamp m j = m.next_snf.(j)
let gap m j = m.gap_at.(j) = m.next_snf.(j)
let clock m = m.clock

let majority m = (m.n / 2) + 1

(* ---- echo path ---------------------------------------------------------- *)

(* The delivery condition reasons about per-sender clocks, so the FORWARD
   stream from one member to one peer must stay FIFO. Every FORWARD a
   member sends is appended once to its out-log, at the index of its own
   stamp, and each peer's channel is a cursor into that log: [echo] only
   appends, and a transfer carries the longest run of frames from the
   channel's head that fits the kernel's buffer ([max_data_bytes]). A
   channel has at most one transfer in flight and moves its head past
   the run once the transfer completes OK.

   Both ends of a transfer report their [cursor] in the one-word
   argument (§3.3.2) of the EXCHANGE and of its ACCEPT, with a flag bit
   above the stamp for a gap, so a report is never read as a rejection.
   A report
   acknowledges the frames below it; the log lets go of a frame every
   peer acknowledged. A gap report sends an idle channel back to the
   cursor (go-back-N); a plain one never does, as it lags the batches
   still in the peer's kernel and inbox. Nor can a report confirm the
   batch it answers: the handler passes its reply argument before it
   reads the put data.

   Transfers are clocked by completions, not timers. A member keeps one
   transfer in flight to a healthy peer (the slot): [pump] launches the
   next channel with a backlog, round robin, in the wake-up of the
   previous transfer's completion, so a batch is whatever queued
   meanwhile and the bus carries at most one such transfer per member.
   Each launch is an EXCHANGE: it puts our prefix and gets back whatever
   the peer's idle channel to us has queued (the peer's handler claims it
   for the reply), so one transfer can drain both directions. A gap with
   nothing to carry its report launches one with an empty put (a poll).

   A crash verdict backs the channel off 200-300 ms (the transport does
   not retry after a verdict), and the channel retries until a transfer
   gets through: it never gives a FORWARD up. A channel that is retrying
   launches outside the slot, so a crashed or partitioned peer never
   stalls the others. *)

let retry_spacing_us = 200_000

let out_slot m i = i land (Array.length m.out - 1)

let echo m frame =
  let peers = Array.length m.chans in
  if peers > 0 then begin
    let cap = Array.length m.out in
    if m.out_hi - m.out_lo = cap then begin
      let out = Array.make (2 * cap) Bytes.empty and left = Array.make (2 * cap) 0 in
      for i = m.out_lo to m.out_hi - 1 do
        out.(i land ((2 * cap) - 1)) <- m.out.(i land (cap - 1));
        left.(i land ((2 * cap) - 1)) <- m.out_left.(i land (cap - 1))
      done;
      m.out <- out;
      m.out_left <- left
    end;
    let s = out_slot m m.out_hi in
    m.out.(s) <- frame;
    m.out_left.(s) <- peers;
    m.out_hi <- m.out_hi + 1
  end

(* A report's gap flag: a bit above every stamp, so that a report is
   never negative and a transfer carrying one completes OK, not
   rejected (the wire's argument is 32 bits, signed). *)
let gap_flag = 1 lsl 30

(* What [m] reports to forwarder [j]: the stamp it takes next, flagged
   while it has a gap. *)
let cursor m j = if gap m j then gap_flag lor m.next_snf.(j) else m.next_snf.(j)

(* [ch]'s peer reported [r]; it acks no frame past [ch_head], which a
   report off the wire, or ahead of our completion, may pass. A negative
   argument is no report. *)
let heard env m ch r =
  if r >= 0 then begin
    let c = r land (gap_flag - 1) in
    while ch.ch_acked < min c ch.ch_head do
      let s = out_slot m ch.ch_acked in
      m.out_left.(s) <- m.out_left.(s) - 1;
      ch.ch_acked <- ch.ch_acked + 1
    done;
    while m.out_lo < m.out_hi && m.out_left.(out_slot m m.out_lo) = 0 do
      m.out.(out_slot m m.out_lo) <- Bytes.empty;
      m.out_lo <- m.out_lo + 1
    done;
    if r land gap_flag <> 0 && c = ch.ch_acked && c < ch.ch_head && not ch.ch_in_flight then begin
      ch.ch_head <- c;
      Metrics.incr (metrics env) "scd.rewinds"
    end
  end

(* Take the longest run of [ch]'s frames that fits [room] bytes into one
   transfer: the channel is in flight from here until [settle]. Returns
   the frames, concatenated. *)
let claim m ch ~room =
  let k = ref 0 and size = ref 0 in
  while
    ch.ch_head + !k < m.out_hi
    && !size + Bytes.length m.out.(out_slot m (ch.ch_head + !k)) <= room
  do
    size := !size + Bytes.length m.out.(out_slot m (ch.ch_head + !k));
    incr k
  done;
  let batch = Bytes.create !size in
  let off = ref 0 in
  for i = ch.ch_head to ch.ch_head + !k - 1 do
    let frame = m.out.(out_slot m i) in
    Bytes.blit frame 0 batch !off (Bytes.length frame);
    off := !off + Bytes.length frame
  done;
  ch.ch_claimed <- !k;
  ch.ch_in_flight <- true;
  batch

(* The claimed run went out: the counters count FORWARD messages, not
   transfers, and a frame some transfer carried before is a retry. *)
let count_sent env ch =
  let k = ch.ch_claimed in
  let retried = min k (ch.ch_carried - ch.ch_head) in
  ch.ch_carried <- max ch.ch_carried (ch.ch_head + k);
  Metrics.add (metrics env) "scd.forwards" k;
  if retried > 0 then Metrics.add (metrics env) "scd.retry_frames" retried

(* The one end of a transfer, in either direction: a delivered run is
   passed and the channel lets its retry buffer go; a failed one stays,
   the channel backs off, and its gap report may be lost. *)
let settle env m ch ~delivered =
  ch.ch_in_flight <- false;
  if delivered then begin
    ch.ch_head <- ch.ch_head + ch.ch_claimed;
    ch.ch_retrying <- false;
    ch.ch_reply <- Bytes.empty
  end
  else begin
    ch.ch_retrying <- true;
    ch.ch_gap_sent <- 0;
    ch.ch_ready_at <- Sodal.now env + retry_spacing_us + Rng.int m.rng (retry_spacing_us / 2)
  end

(* A batch is checked whole where it arrives and read in place by the
   task. *)
let take_batch env m batch =
  match Scd_wire.check batch with
  | Ok () -> Queue.add batch m.inbox
  | Error _ -> Metrics.incr (metrics env) "scd.bad_frame"

(* [ch] has frames to send, or a gap to report that no launch carried. *)
let has_work m ch =
  ch.ch_head < m.out_hi || (gap m ch.ch_peer && cursor m ch.ch_peer <> ch.ch_gap_sent)

let launchable m ~now ch =
  (not ch.ch_in_flight)
  && has_work m ch
  && if ch.ch_retrying then now >= ch.ch_ready_at else not m.slot_busy

(* Launch [ch]'s run; false when the kernel has no request slot left
   (a completion will free one and wake the task). *)
let launch env m ch =
  let room = (Kernel.cost (Sodal.kernel env)).Cost.max_data_bytes in
  let batch = claim m ch ~room in
  let healthy = not ch.ch_retrying in
  (* the slot's transfers share one reply buffer; a retrying channel
     keeps its own until a transfer gets through *)
  if healthy then begin
    m.slot_busy <- true;
    if Bytes.length m.reply <> room then m.reply <- Bytes.create room
  end
  else if Bytes.length ch.ch_reply <> room then ch.ch_reply <- Bytes.create room;
  let into = if healthy then m.reply else ch.ch_reply in
  let report = cursor m ch.ch_peer in
  match Sodal.exchange env ch.ch_server ~arg:report batch ~into with
  | exception Sodal.Too_many_requests ->
    ch.ch_in_flight <- false;
    if healthy then m.slot_busy <- false;
    false
  | tid ->
    count_sent env ch;
    if report land gap_flag <> 0 then ch.ch_gap_sent <- report;
    if ch.ch_claimed = 0 then Metrics.incr (metrics env) "scd.gap_polls";
    Sodal.on_completion_of env tid (fun c ->
        if healthy then m.slot_busy <- false;
        match c.Sodal.status with
        | Sodal.Comp_ok ->
          settle env m ch ~delivered:true;
          heard env m ch c.Sodal.reply_arg;
          if c.Sodal.get_transferred > 0 then
            take_batch env m (Bytes.sub into 0 c.Sodal.get_transferred)
        | Sodal.Comp_rejected | Sodal.Comp_crashed | Sodal.Comp_unadvertised ->
          (* a peer that refused the transfer took none of it *)
          settle env m ch ~delivered:false);
    true

(* The next launchable channel, round robin from [pump_cursor]; -1 when
   none is. *)
let rec next_launch m ~now i =
  let len = Array.length m.chans in
  if i = len then -1
  else
    let j = (m.pump_cursor + i) mod len in
    if launchable m ~now m.chans.(j) then begin
      m.pump_cursor <- (j + 1) mod len;
      j
    end
    else next_launch m ~now (i + 1)

let rec pump env m =
  let j = next_launch m ~now:(Sodal.now env) 0 in
  if j >= 0 && launch env m m.chans.(j) then pump env m

(* Sleep until handler activity: a completion frees the slot and wakes
   us, and so do arriving FORWARDs and operations. Only a channel waiting
   out a retry backoff needs a timer. *)
let sleep env m =
  let now = Sodal.now env and wake = ref max_int in
  for i = 0 to Array.length m.chans - 1 do
    let ch = m.chans.(i) in
    if ch.ch_retrying && (not ch.ch_in_flight) && has_work m ch then
      wake := min !wake ch.ch_ready_at
  done;
  if !wake = max_int || !wake <= now then Sodal.idle env else Sodal.idle_for env (!wake - now)

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

let fresh_quad m ~sd ~sn frame =
  { q_sd = sd; q_sn = sn; q_frame = frame; q_cl = Array.make m.n infinity_clock; q_known = 0;
    q_slot = -1 }

let buffer_quad m q =
  Itbl.replace m.buffer (key q.q_sd q.q_sn) q;
  if m.nbuf = Array.length m.bufq then begin
    let bufq = Array.make (2 * m.nbuf) no_quad in
    Array.blit m.bufq 0 bufq 0 m.nbuf;
    m.bufq <- bufq
  end;
  q.q_slot <- m.nbuf;
  m.bufq.(m.nbuf) <- q;
  m.nbuf <- m.nbuf + 1

let unbuffer_quad m q =
  Itbl.remove m.buffer (key q.q_sd q.q_sn);
  let last = m.bufq.(m.nbuf - 1) in
  m.bufq.(q.q_slot) <- last;
  last.q_slot <- q.q_slot;
  m.nbuf <- m.nbuf - 1;
  m.bufq.(m.nbuf) <- no_quad

(* First sight of a message: buffer it with a fresh clock vector and echo
   our own FORWARD. Later sights, from other forwarders, only lower their
   clock entries. *)
let take_forward env m b o =
  let k = key (Scd_wire.sd b o) (Scd_wire.sn b o) in
  if Itbl.mem m.delivered k then Metrics.incr (metrics env) "scd.stale_forward"
  else
    match Itbl.find m.buffer k with
    | q -> set_clock m q (Scd_wire.f b o) (Scd_wire.snf b o)
    | exception Not_found ->
      let snf = m.clock in
      m.clock <- m.clock + 1;
      let q =
        fresh_quad m ~sd:(Scd_wire.sd b o) ~sn:(Scd_wire.sn b o)
          (Scd_wire.restamp b o ~f:m.index ~snf)
      in
      set_clock m q (Scd_wire.f b o) (Scd_wire.snf b o);
      buffer_quad m q;
      set_clock m q m.index snf;
      echo m q.q_frame

(* The clock reasoning needs each forwarder's stamps in the order it made
   them, and a forwarder stamps 0, 1, 2, ... on every channel, whichever
   path (its transfer or its reply to ours) brings each batch. So FIFO
   is enforced here, where the paths meet, keeping nothing out of order:
   the next stamp is taken and clears the gap mark, one below it is a
   repeat, and one above it is dropped and sets the mark. The in-order
   path reads the entry where it lies and allocates nothing unless the
   message is new. *)
let process_forward env m b o =
  let f = Scd_wire.f b o in
  if Scd_wire.sd b o >= m.n || f >= m.n then Metrics.incr (metrics env) "scd.bad_frame"
  else begin
    let snf = Scd_wire.snf b o and next = m.next_snf.(f) in
    if snf = next then begin
      m.next_snf.(f) <- next + 1;
      take_forward env m b o
    end
    else if snf > next then begin
      m.gap_at.(f) <- next;
      Metrics.incr (metrics env) "scd.gaps"
    end
  end

let process_batch env m b =
  let o = ref 0 in
  while !o < Bytes.length b do
    process_forward env m b !o;
    o := Scd_wire.next b !o
  done

let apply m q =
  let b = q.q_frame in
  match Scd_wire.kind b 0 with
  | Event.Payload_write ->
    let reg = Scd_wire.reg b 0 and date = Scd_wire.date b 0 in
    (* max-wins on (date, sd, sn): commutative, so the order of applies
       inside one delivered set does not matter *)
    if
      reg < m.regs
      && (date > m.reg_date.(reg)
         || date = m.reg_date.(reg)
            && (q.q_sd > m.reg_sd.(reg) || (q.q_sd = m.reg_sd.(reg) && q.q_sn > m.reg_sn.(reg))))
    then begin
      m.reg_date.(reg) <- date;
      m.reg_sd.(reg) <- q.q_sd;
      m.reg_sn.(reg) <- q.q_sn;
      m.reg_v.(reg) <- Scd_wire.value b 0
    end
  | Event.Payload_incr ->
    let k = key (Scd_wire.origin b 0) (Scd_wire.oseq b 0) in
    if not (Itbl.mem m.applied_incrs k) then begin
      Itbl.replace m.applied_incrs k ();
      m.counter <- m.counter + Scd_wire.delta b 0
    end
  | Event.Payload_sync -> ()

let result_of_op m (p : pending) =
  if p.p_kind = op_write then encode_write_result ~date:p.p_date ~sd:m.index ~sn:p.p_sn
  else if p.p_kind = op_snapshot then begin
    let b = Bytes.create (m.regs * reg_entry_size) in
    for r = 0 to m.regs - 1 do
      let off = r * reg_entry_size in
      Bytes.set_int64_be b off (Int64.of_int m.reg_v.(r));
      Bytes.set_int32_be b (off + 8) (Int32.of_int m.reg_date.(r));
      Bytes.set_int32_be b (off + 12) (Int32.of_int m.reg_sd.(r));
      Bytes.set_int32_be b (off + 16) (Int32.of_int m.reg_sn.(r))
    done;
    b
  end
  else if p.p_kind = op_cread then encode_int_result m.counter
  else encode_int_result 0

let drop_op m (p : pending) =
  Itbl.remove m.ops p.p_ticket;
  if p.p_sn >= 0 then Itbl.remove m.by_msg (key m.index p.p_sn)

(* The operation's message was delivered (or an increment was recognised
   as already applied): compute the reply from the just-updated local
   state and complete a parked collect GET if one is waiting. *)
let complete_op env m (p : pending) =
  let data = result_of_op m p in
  p.p_result <- Some data;
  let ms = metrics env in
  Metrics.incr ms "scd.ops";
  Metrics.observe ms "scd.op.us" (Sodal.now env - p.p_start_us);
  if tracing env then
    emit env
      (Event.Scd_op
         { op = op_event p.p_kind; origin = p.p_origin; oseq = p.p_oseq; ok = true;
           elapsed_us = Sodal.now env - p.p_start_us });
  match p.p_waiter with
  | Some asker -> (
    p.p_waiter <- None;
    match Sodal.accept_get env asker ~arg:0 ~data with
    | Types.Accept_success -> drop_op m p
    | Types.Accept_cancelled | Types.Accept_crashed ->
      (* asker died; keep the result for a failover re-collect *)
      ())
  | None -> ()

let before q q' = q.q_sd < q'.q_sd || (q.q_sd = q'.q_sd && q.q_sn < q'.q_sn)

(* Deliver the set [m.scan.(0 .. k-1)], sorted by message identity (an
   insertion sort in place: sets are small). *)
let deliver_set env m k =
  let s = m.scan in
  for i = 1 to k - 1 do
    let q = s.(i) in
    let j = ref i in
    while !j > 0 && before q s.(!j - 1) do
      s.(!j) <- s.(!j - 1);
      decr j
    done;
    s.(!j) <- q
  done;
  let ids = Array.make k 0 in
  m.candidates <- m.candidates - k;
  for i = 0 to k - 1 do
    let q = s.(i) in
    ids.(i) <- key q.q_sd q.q_sn;
    unbuffer_quad m q;
    Itbl.replace m.delivered ids.(i) ();
    apply m q
  done;
  m.delivery_log <- ids :: m.delivery_log;
  let ms = metrics env in
  Metrics.incr ms "scd.deliveries";
  Metrics.observe ms "scd.set_size" k;
  if tracing env then emit env (Event.Scd_deliver { size = k; pending = m.nbuf });
  (* complete operations whose own message is in this set (after every
     apply, so a snapshot/read sees the whole set's effect) *)
  for i = 0 to k - 1 do
    match Itbl.find m.by_msg ids.(i) with
    | p when p.p_result = None ->
      if p.p_kind = op_write && p.p_phase = 1 then begin
        (* sync round done: the proxy is now up to date; run the write
           round with a provably fresh date *)
        p.p_phase <- 2;
        Itbl.remove m.by_msg ids.(i);
        p.p_sn <- -1;
        Queue.add p.p_ticket m.op_inbox
      end
      else complete_op env m p
    | _ -> ()
    | exception Not_found -> ()
  done

(* [q < q'] iff a majority of clock entries are strictly smaller;
   unknown entries (infinity on both sides) never count. *)
let prec m q q' =
  let c = ref 0 in
  for x = 0 to m.n - 1 do
    if q.q_cl.(x) < q'.q_cl.(x) then incr c
  done;
  !c >= majority m

(* Some quad of [m.scan.(j .. upto-1)] is not provably after [q]. *)
let rec blocked m q j upto = j < upto && ((not (prec m q m.scan.(j))) || blocked m q (j + 1) upto)

(* Delivery condition: a buffered message whose clock is known for a
   majority is a candidate; a candidate q must wait while some buffered
   message outside the set is not provably after it (it might still have
   to join q's set or precede it). The set is the greatest such: the
   scan copies the buffer into [m.scan], candidates first, and moves a
   blocked candidate behind the set until none is left, which reaches
   the same set in any order. With no candidate at all nothing can be
   delivered. *)
let rec try_deliver env m =
  if m.candidates > 0 then begin
    let total = m.nbuf and maj = majority m in
    if Array.length m.scan < total then m.scan <- Array.make (Array.length m.bufq) no_quad;
    let s = m.scan in
    let set = ref 0 in
    for i = 0 to total - 1 do
      let q = m.bufq.(i) in
      if q.q_known >= maj then begin
        s.(i) <- s.(!set);
        s.(!set) <- q;
        incr set
      end
      else s.(i) <- q
    done;
    let moved = ref true in
    while !moved do
      moved := false;
      let i = ref 0 in
      while !i < !set do
        let q = s.(!i) in
        if blocked m q !set total then begin
          decr set;
          s.(!i) <- s.(!set);
          s.(!set) <- q;
          moved := true
        end
        else incr i
      done
    done;
    if !set > 0 then deliver_set env m !set;
    Array.fill s 0 total no_quad;
    if !set > 0 then try_deliver env m
  end

(* ---- proxied operations ------------------------------------------------- *)

let start_op env m ticket =
  match Itbl.find m.ops ticket with
  | exception Not_found -> ()
  | p ->
    if p.p_kind = op_incr && Itbl.mem m.applied_incrs (key p.p_origin p.p_oseq) then
      (* failover retry of an increment that already went through: ack
         without broadcasting a second application *)
      complete_op env m p
    else begin
      let payload =
        if p.p_kind = op_write && p.p_phase = 2 then begin
          let date = m.reg_date.(p.p_a) + 1 in
          p.p_date <- date;
          Scd_wire.Write { reg = p.p_a; value = p.p_b; date; writer = m.index }
        end
        else if p.p_kind = op_incr then
          Scd_wire.Incr { delta = p.p_a; origin = p.p_origin; oseq = p.p_oseq }
        else Scd_wire.Sync
      in
      let sn = m.clock in
      m.clock <- m.clock + 1;
      let q =
        fresh_quad m ~sd:m.index ~sn
          (Scd_wire.encode { Scd_wire.sd = m.index; sn; f = m.index; snf = sn; payload })
      in
      set_clock m q m.index sn;
      buffer_quad m q;
      p.p_sn <- sn;
      Itbl.replace m.by_msg (key m.index sn) p;
      m.bcast_sns <- sn :: m.bcast_sns;
      Metrics.incr (metrics env) "scd.broadcasts";
      if tracing env then
        emit env
          (Event.Scd_broadcast { sd = m.index; sn; payload = Scd_wire.payload_kind payload });
      echo m q.q_frame
    end

(* ---- spec --------------------------------------------------------------- *)

let valid_op m kind a = kind >= op_write && kind <= op_cread
                        && (kind <> op_write || (a >= 0 && a < m.regs))

(* Our channel to [mid]; -1 when [mid] is no member. *)
let rec channel_to m mid i =
  if i = Array.length m.chans then -1
  else if m.chans.(i).ch_mid = mid then i
  else channel_to m mid (i + 1)

let handle_request m env info =
  if Pattern.equal info.Sodal.pattern m.cluster_pat then begin
    (* peer FORWARDs or a poll: accept in the handler (bounded) so a
       peer's transfer never waits on our task; the task drains the
       inbox. The peer's report may rewind our channel to it, whose
       idle backlog the reply carries, passed only once our kernel knows
       it arrived. *)
    let i = channel_to m info.Sodal.asker.Types.rq_mid 0 in
    if i < 0 || info.Sodal.put_size + info.Sodal.get_size = 0 then Sodal.reject env
    else begin
      let ch = m.chans.(i) in
      heard env m ch info.Sodal.arg;
      let into = Bytes.create info.Sodal.put_size in
      let back = info.Sodal.get_size > 0 && (not ch.ch_in_flight) && ch.ch_head < m.out_hi in
      let data = if back then claim m ch ~room:info.Sodal.get_size else Bytes.empty in
      if back then count_sent env ch;
      let status, got =
        Sodal.accept_current_exchange env ~arg:(cursor m ch.ch_peer) ~into ~data
      in
      if back then settle env m ch ~delivered:(status = Types.Accept_success);
      (* Put data that arrived is kept even when the accept then fails:
         the peer may have had our reply and passed its run, and if it
         did not, its retry only repeats FORWARDs we already took. *)
      if got > 0 then
        take_batch env m (if got = Bytes.length into then into else Bytes.sub into 0 got)
    end
  end
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
            p_sn = -1; p_result = None; p_waiter = None; p_start_us = Sodal.now env }
        in
        Itbl.replace m.ops ticket p;
        Queue.add ticket m.op_inbox
      | Some _ | None -> Metrics.incr (metrics env) "scd.bad_op")
    | Types.Accept_success | Types.Accept_cancelled | Types.Accept_crashed -> ()
  end
  else if info.Sodal.get_size > 0 && info.Sodal.put_size = 0 then begin
    (* collect: answer now if the operation is done, else park the asker
       until its message is scd-delivered *)
    match Itbl.find m.ops info.Sodal.arg with
    | p -> (
      match p.p_result with
      | Some data -> (
        match Sodal.accept_current_get env ~arg:0 ~data with
        | Types.Accept_success -> drop_op m p
        | Types.Accept_cancelled | Types.Accept_crashed -> ())
      | None -> p.p_waiter <- Some info.Sodal.asker)
    | exception Not_found -> Sodal.reject env
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
      process_batch env m (Queue.pop m.inbox)
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
            ch.ch_gap_sent <- 0;
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
        if tracing env then
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
