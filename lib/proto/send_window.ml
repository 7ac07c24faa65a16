module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Stats = Soda_sim.Stats
module Delay_line = Soda_sim.Delay_line
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event
module Bus = Soda_net.Bus
module Cost = Soda_base.Cost_model

type kind = K_request | K_accept | K_put_data | K_cancel

type outcome = Out_acked | Out_error of Wire.err_code | Out_cancel_reply of bool | Out_timeout

(* One reliable message, from [send] to its outcome. While launched it
   holds the slot [seq]; a BUSY puts it back in the queue, and it takes a
   fresh slot when launched again. *)
type msg = {
  kind : kind;
  tid : int;
  body : Wire.body;
  on_done : int -> int -> outcome -> unit;  (* told the peer and the tid *)
  mutable seq : int;
  mutable run : bool;
      (* launched with nothing outstanding: this slot is the window base and
         every earlier slot is acked, so the packet is flagged as a run start
         for no-record receivers (window > 1 only) *)
  mutable retries : int;  (* timer retransmissions of this launch *)
  mutable busy : int;  (* BUSYs received *)
  mutable ready_at : int;  (* earliest launch (BUSY backoff); 0 = at once *)
  mutable launches : int;
  mutable rt_id : int;
      (* the id of the retransmission deadline's entry in the node's
         [waits] line; -1 = no deadline *)
  mutable sent_at : int;
      (* virtual time of the most recent emission; 0 = never sent. Feeds
         the RTT estimator only when the message was emitted exactly once
         (Karn's rule: a retransmitted message's ack is ambiguous) *)
}

(* An empty slot. Its tid is no transaction's. *)
let no_msg =
  { kind = K_request; tid = Event.no_tid; body = Wire.Ack; on_done = (fun _ _ _ -> ()); seq = 0;
    run = false; retries = 0; busy = 0; ready_at = 0; launches = 0; rt_id = -1;
    sent_at = 0 }

(* The message of an owed ack's hold in [waits], told from [no_msg] by
   identity; never sent. *)
let ack_hold = { no_msg with seq = -1 }

(* What the windows of one node share. [acked] is the ack walk's
   scratch, used as a stack: a walk pushes the messages it covers from
   [top] up and keeps them there until their callbacks have run, so an
   [on_done] that re-enters a window of this node walks above them. It
   starts with one entry and doubles when a walk needs more, so a node
   pays for the widest walk it has run, not for W (a W-entry array per
   node made set-up measurably slower). The stats slots are resolved at
   their first sample. *)
type shared = {
  mutable acked : msg array;
  mutable top : int;
  window_occupancy : Stats.sample_slot;
  rtt_us : Stats.sample_slot;
  cwnd_pkts : Stats.sample_slot;
  ack_wait_us : Stats.sample_slot;
  t_protocol : int ref;
  mutable lines : lines option;
      (* made at their first use: the lines' filler is a window of no
         peer, and a window needs the node's [env] *)
}

(* Every timed wait of the node's windows, one entry each. [waits] holds
   the short ones: a launched message's retransmission deadline ([a] the
   message, live while its [rt_id] is the entry's id), a window's
   BUSY-backoff wake ([a] = [no_msg], live while the window's [wake_id]
   is) and the hold of the ack it owes ([a] = [ack_hold], live while its
   [ack_id] is). [copy] holds the data copies into the output buffer
   ([n] the launch that copies; every copy entry fires). No window holds
   a timer of its own. *)
and lines = {
  waits : (msg, t) Delay_line.t;
  copy : (msg, t) Delay_line.t;
  nobody : t;  (* the lines' filler: a window of no peer, with no slots *)
  cwnd_init : float;  (* a fresh window's cwnd *)
}
and env = {
  engine : Engine.t;
  bus : Bus.t;
  cost : Cost.t;
  rng : Rng.t;
  stats : Stats.t;
  recorder : Recorder.t;
  event : Event.kind -> unit;
  transmit : int -> seq:int -> run:bool -> Wire.body -> unit;
  ack_due : int -> unit;
  shared : shared;
}

and t = {
  env : env;
  mutable peer : int;
  (* [base] is the oldest unacknowledged slot, [next] the next slot to
     assign; at most [Cost.transport_window] apart *)
  mutable base : int;
  mutable next : int;
  slots : msg array;  (* per sequence number: its launched message, or [no_msg] *)
  mutable in_flight : int;  (* launched messages in [slots] *)
  queue : msg Queue.t;
  mutable wake_id : int;  (* the BUSY-backoff wake's entry in [waits]; -1 = none *)
  mutable copies : int;  (* this window's entries in [copy] *)
  mutable ack_owed : int;
      (* the cumulative ack the peer is owed, for the next packet to it to
         carry; -1 = none *)
  mutable ack_id : int;  (* the owed ack's hold in [waits]; -1 = none, or held back *)
  mutable parked_ack : int option;  (* a cumulative ack held back by an unresolved CANCEL slot *)
  (* congestion control (windowed transports with aimd on): effective
     send window = min(cwnd, window); Jacobson estimator state in float
     microseconds, srtt = 0.0 until the first Karn-clean sample *)
  mutable cwnd : float;
  mutable srtt_us : float;
  mutable rttvar_us : float;
  mutable cwnd_cut_at : int;
      (* last multiplicative decrease; a burst of timer expiries within
         one RTO counts as a single loss event *)
  mutable rto_shift : int;
      (* Karn backoff kept across REQUESTs (RFC 6298 §5.5-5.7): the highest
         retry count a REQUEST timer expiry has reached since the last
         clean RTT sample, capped at max_retrans *)
}

let shared stats =
  { acked = [| no_msg |]; top = 0;
    window_occupancy = Stats.sample_slot stats "net.window_occupancy";
    rtt_us = Stats.sample_slot stats "net.rtt_us"; cwnd_pkts = Stats.sample_slot stats "net.cwnd";
    ack_wait_us = Stats.sample_slot stats "accept.ack_wait_us";
    t_protocol = Stats.time_ref stats (Cost.label Cost.Protocol); lines = None }

(* At window 1 the sequence space collapses to {0,1} and every computation
   below reduces to the seed's alternating-bit flip, bit for bit. *)
let win w = Cost.transport_window w.env.cost
let space w = Cost.seq_space w.env.cost
let dist w base x = (x - base + space w) mod space w
let tracing w = Recorder.tracing w.env.recorder

let rejection_consumes cost = Cost.transport_window cost > 1

(* Is congestion control live? Window-1 runs always behave exactly like
   the seed's alternating bit, AIMD knob or not. *)
let aimd_on w = w.env.cost.Cost.aimd && win w > 1

let make env ~peer slots =
  { env; peer; base = 0; next = 0; slots; in_flight = 0; queue = Queue.create (); wake_id = -1;
    copies = 0; ack_owed = -1; ack_id = -1; parked_ack = None; cwnd = Cost.cwnd_init env.cost;
    srtt_us = 0.0; rttvar_us = 0.0; cwnd_cut_at = 0; rto_shift = 0 }

let lines_of env =
  match env.shared.lines with
  | Some ls -> ls
  | None ->
    let nobody = make env ~peer:(-1) [||] in
    let line fill_a fill_b = Delay_line.create ~tag:"proto" env.engine ~delay:0 ~fill_a ~fill_b in
    let ls =
      { waits = line no_msg nobody; copy = line no_msg nobody; nobody; cwnd_init = nobody.cwnd }
    in
    env.shared.lines <- Some ls;
    ls

let lines w = lines_of w.env

let nobody env = (lines_of env).nobody

let create env ~peer = make env ~peer (Array.make (Cost.seq_space env.cost) no_msg)

(* The bus pins one window per medium (Bus.claim_seq_window), so the
   local cost-model window IS the peer's receive window. *)
let effective w = if aimd_on w then max 1 (min (win w) (int_of_float w.cwnd)) else win w

let rtt_estimate_us w =
  if w.srtt_us > 0.0 then Some (int_of_float w.srtt_us, int_of_float w.rttvar_us) else None

let active w = w.in_flight > 0 || not (Queue.is_empty w.queue)

(* ---- congestion control (AIMD + Jacobson RTT, windowed only) ----------- *)

let cwnd_note w ~reason =
  Stats.observe w.env.shared.cwnd_pkts (int_of_float w.cwnd);
  if tracing w then
    w.env.event
      (Event.Cwnd_change
         { peer = w.peer; cwnd = int_of_float w.cwnd; in_flight = w.in_flight; reason })

(* The accepter of a data-bearing ACCEPT stays blocked until it is acked:
   record how long the ack took from the ACCEPT's latest emission. *)
let ack_wait_sample w m =
  match m.body with
  | Wire.Accept { data; _ } when Bytes.length data > 0 && m.sent_at > 0 ->
    Stats.observe w.env.shared.ack_wait_us (Engine.now w.env.engine - m.sent_at)
  | _ -> ()

(* Karn's rule: a message that was ever retransmitted (or re-emitted
   after a BUSY) has an ambiguous ack. *)
let clean m = m.retries = 0 && m.busy = 0

(* Fold one acked message into the RTT estimator. *)
let rtt_sample w m =
  if aimd_on w && clean m && m.sent_at > 0 then begin
    let sample = Engine.now w.env.engine - m.sent_at in
    if sample >= 0 then begin
      let srtt, rttvar =
        Cost.rtt_update w.env.cost ~srtt_us:w.srtt_us ~rttvar_us:w.rttvar_us ~sample_us:sample
      in
      w.srtt_us <- srtt;
      w.rttvar_us <- rttvar;
      w.rto_shift <- 0;
      Stats.observe w.env.shared.rtt_us sample;
      if tracing w then
        w.env.event
          (Event.Rtt_sample
             { peer = w.peer; sample_us = sample; srtt_us = int_of_float srtt;
               rttvar_us = int_of_float rttvar })
    end
  end

let rec all_clean acked lo hi = lo >= hi || (clean acked.(lo) && all_clean acked (lo + 1) hi)

(* Additive increase: one cumulative ack covering only never-retransmitted
   messages ([acked.(lo .. hi - 1)]) grows cwnd by the cost model's
   increment (capped at W). *)
let cwnd_on_clean_ack w acked lo hi =
  if aimd_on w && hi > lo && all_clean acked lo hi then begin
    let before = int_of_float w.cwnd in
    w.cwnd <- Cost.aimd_increase w.env.cost ~cwnd:w.cwnd;
    if int_of_float w.cwnd <> before then cwnd_note w ~reason:Event.Cwnd_ack
  end

(* Multiplicative decrease on retransmission-timer expiry. A burst of
   expiries within one RTO is a single loss event (one halving), or a
   full window's worth of simultaneous timeouts would collapse cwnd to
   the floor in one step. *)
let cwnd_on_loss w =
  if aimd_on w then begin
    let now = Engine.now w.env.engine in
    let rto = Cost.rto_us w.env.cost ~srtt_us:w.srtt_us ~rttvar_us:w.rttvar_us in
    if now - w.cwnd_cut_at >= rto then begin
      w.cwnd_cut_at <- now;
      let before = int_of_float w.cwnd in
      w.cwnd <- Cost.aimd_decrease w.env.cost ~cwnd:w.cwnd;
      if int_of_float w.cwnd <> before then cwnd_note w ~reason:Event.Cwnd_loss
    end
  end

(* A REQUEST's backoff exponent starts from the persisted shift: the
   REQUESTs a busy server holds are all retransmitted, so Karn's rule
   discards every sample and [srtt] never forms; without the shift each
   new REQUEST would start from the unbacked-off RTO again. *)
let backoff_exp w m =
  if aimd_on w && m.kind = K_request then max m.retries w.rto_shift else m.retries

(* The line time and data copy of [bytes], for [retrans_delay]. *)
let tx_time w bytes = Bus.transmission_time_us w.env.bus ~payload_bytes:(bytes + 40)
let copy_time c bytes = Cost.data_copy_us c ~bytes

(* Floats stay local to this function, where they are unboxed: the
   jitter is [Rng.float]'s arithmetic on the same draw. *)
let retrans_delay w m =
  let c = w.env.cost in
  let backoff = c.Cost.retrans_backoff ** float_of_int (backoff_exp w m) in
  let base = float_of_int c.Cost.retrans_interval_us *. backoff in
  (* Adaptive floor: once the estimator has a sample, never fire before
     srtt + 4 rttvar (with the same per-retry backoff). Under incast the
     static schedule undershoots the queueing delay and every client
     retransmits spuriously; the estimator absorbs it. The static formula
     below remains a lower bound, so an adaptive sender never fires
     EARLIER than the fixed-schedule one did. *)
  let adaptive =
    if aimd_on w && w.srtt_us > 0.0 then
      float_of_int (Cost.rto_us c ~srtt_us:w.srtt_us ~rttvar_us:w.rttvar_us) *. backoff
    else 0.0
  in
  let base = if adaptive > base then adaptive else base in
  (* A 2000-byte frame holds the 1 Mbit medium for ~16 ms, and the expected
     acknowledgement path includes the peer's data copies and (for a
     REQUEST) the whole accept turn-around; the timeout must comfortably
     exceed all of it or every large transfer retransmits spuriously. *)
  let turnaround =
    c.Cost.ack_grace_us + c.Cost.accept_trap_us + c.Cost.context_switch_us
    + (4 * c.Cost.packet_protocol_us)
  in
  let extra =
    match m.body with
    | Wire.Request { data; get_size; _ } ->
      let d = Bytes.length data in
      (2 * tx_time w d) + (2 * copy_time c d) + tx_time w get_size + copy_time c get_size
      + turnaround
    | Wire.Accept { data; put_transferred; _ } ->
      (* the ack usually rides the next REQUEST, which carries a comparable
         put payload: allow for its copy and transmission too *)
      let d = Bytes.length data in
      (2 * tx_time w d) + (2 * copy_time c d) + (2 * copy_time c put_transferred)
      + tx_time w put_transferred + turnaround
    | Wire.Put_data { data; _ } ->
      let d = Bytes.length data in
      (2 * tx_time w d) + (2 * copy_time c d) + turnaround
    | _ -> 2 * tx_time w 0
  in
  let draw = float_of_int (Rng.bits32 w.env.rng) in
  int_of_float (base +. (draw /. 4294967296.0 *. (base *. 0.25))) + extra

let busy_delay w m =
  let c = w.env.cost in
  let base =
    float_of_int c.Cost.busy_retry_us *. (c.Cost.busy_retry_backoff ** float_of_int (m.busy - 1))
  in
  let capped = min base (float_of_int c.Cost.busy_retry_max_us) in
  let jitter = Rng.float w.env.rng (capped *. 0.1) in
  int_of_float (capped +. jitter)

let body_for_transmission m =
  match m.body with
  | Wire.Request r when m.retries + m.busy > 0 ->
    (* Data rides only on the first transmission (§5.2.3). *)
    Wire.Request { r with data = Bytes.empty; retry = true }
  | body -> body

(* ---- the send queue ------------------------------------------------------ *)

let queue_push_front queue x =
  let tmp = Queue.create () in
  Queue.push x tmp;
  Queue.transfer queue tmp;
  Queue.transfer tmp queue

let queue_filter q keep =
  let kept = Queue.create () in
  Queue.iter (fun m -> if keep m then Queue.push m kept) q;
  Queue.clear q;
  Queue.transfer kept q

(* The first queued message that satisfies [p]; [no_msg] if none does. *)
let first_queued q p = Queue.fold (fun acc m -> if acc == no_msg && p m then m else acc) no_msg q

let queued w ?tid kind =
  first_queued w.queue (fun m -> m.kind = kind && match tid with Some t -> m.tid = t | None -> true)
  != no_msg

(* Granted DATA goes ahead of every queued request (FIFO among DATA): the
   next window slot must go to the exchange the server is already waiting
   on, not to a new REQUEST it would BUSY-bounce. *)
let data_first q =
  let puts = Queue.create () and rest = Queue.create () in
  Queue.iter (fun m -> Queue.push m (if m.kind = K_put_data then puts else rest)) q;
  Queue.clear q;
  Queue.transfer puts q;
  Queue.transfer rest q

(* Window 1: the queued DATA is what will free the busy handler, so it
   goes first and a request backing off behind it retries right after. *)
let retry_behind_data q =
  Queue.iter (fun m -> m.ready_at <- 0) q;
  data_first q

(* The message to launch next: the first whose BUSY backoff has matured.
   Where a rejection leaves the refused slot unconsumed (window 1), a
   backing-off head keeps that slot for its retry and holds back
   everything queued behind it except granted DATA, which the busy
   handler may be waiting for. [no_msg] when nothing may launch. *)
let launchable w now =
  if Queue.is_empty w.queue then no_msg
  else
    let head = Queue.peek w.queue in
    if head.ready_at <= now then head
    else if not (rejection_consumes w.env.cost) then
      first_queued w.queue (fun m -> m.kind = K_put_data)
    else first_queued w.queue (fun m -> m.ready_at <= now)

(* When the earliest BUSY backoff in the queue matures. Sends that never
   bounced do not count: held back behind a backing-off head, they would
   make the wake timer re-arm every microsecond. *)
let next_ready_at q =
  Queue.fold (fun acc m -> if m.ready_at > 0 then min acc m.ready_at else acc) max_int q

(* ---- lines, retirement and reuse ---------------------------------------- *)

let wait_live id m w =
  if m == no_msg then w.wake_id = id else if m == ack_hold then w.ack_id = id else m.rt_id = id

(* [m] leaves its deadline: the entry goes stale, and the line moves on
   if it was the head. *)
let clear_deadline w m =
  let id = m.rt_id in
  if id >= 0 then begin
    m.rt_id <- -1;
    Delay_line.cancel (lines w).waits wait_live id
  end

(* Launched and not yet resolved: it holds its slot. *)
let launched w m = w.slots.(m.seq) == m

(* Free [m]'s slot, clearing its deadline; [launched] keeps a re-entrant
   second retire from dropping [in_flight] twice. *)
let retire w m =
  if launched w m then begin
    clear_deadline w m;
    w.slots.(m.seq) <- no_msg;
    w.in_flight <- w.in_flight - 1
  end

(* The owed ack's hold goes stale; the ack stays owed. *)
let withdraw_ack w =
  let id = w.ack_id in
  if id >= 0 then begin
    w.ack_id <- -1;
    Delay_line.cancel (lines w).waits wait_live id
  end

let take_ack w =
  let a = w.ack_owed in
  if a >= 0 then begin
    w.ack_owed <- -1;
    withdraw_ack w
  end;
  a

let owed_ack w = w.ack_owed

let reset env =
  match env.shared.lines with
  | Some ls ->
    Delay_line.reset ls.waits;
    Delay_line.reset ls.copy
  | None -> ()

let quiet w = (not (active w)) && w.wake_id < 0 && w.copies = 0 && w.ack_owed < 0 && w.ack_id < 0

let reuse w ~peer =
  if not (quiet w) then invalid_arg "Send_window.reuse: the window is not quiet";
  w.peer <- peer;
  w.base <- 0;
  w.next <- 0;
  w.parked_ack <- None;
  w.cwnd <- (lines w).cwnd_init;
  w.srtt_us <- 0.0;
  w.rttvar_us <- 0.0;
  w.cwnd_cut_at <- 0;
  w.rto_shift <- 0

let rec transmit w m =
  let env = w.env in
  let attempt = m.retries + m.busy in
  if attempt > 0 then begin
    Stats.incr env.stats "pkt.retransmissions";
    (* separate the timer-expiry retransmissions (the congestion signal
       AIMD reacts to) from BUSY re-emissions (handler flow control) *)
    if m.retries > 0 then Stats.incr env.stats "pkt.retransmissions.timer";
    if tracing w then
      env.event (Event.Retransmit { tid = m.tid; peer = w.peer; pkt = Wire.pkt m.body; attempt })
  end;
  let body = body_for_transmission m in
  (* The kernel copies the client buffer into the output buffer as part of
     sending (§5.2): data-bearing transmissions pay one copy here, in the
     transmit critical path. *)
  let bytes = Wire.data_bytes body in
  let copy_us = if bytes > 0 then Cost.data_copy_us env.cost ~bytes else 0 in
  if copy_us = 0 then emit w m body
  else begin
    env.shared.t_protocol := !(env.shared.t_protocol) + copy_us;
    (* The imminent emission will carry any owed ack; hold the standalone
       ack back while the output buffer is being filled, and release it
       if the emission is called off. *)
    withdraw_ack w;
    let ls = lines w in
    w.copies <- w.copies + 1;
    ignore (Delay_line.push_after ls.copy ~delay:copy_us ~fire:copied ls ~n:m.launches m w)
  end

(* A copy is done: the message goes out unless it was relaunched or
   resolved meanwhile. A window with a copy under way is not [quiet], so
   [w] is still the window that began it. *)
and copied ls =
  let l = ls.copy in
  let m = Delay_line.head_a l and w = Delay_line.head_b l and launch = Delay_line.head_n l in
  Delay_line.next l Delay_line.always;
  w.copies <- w.copies - 1;
  if m.launches = launch && launched w m then emit w m (body_for_transmission m)
  else if w.ack_owed >= 0 then owe_ack w ~hold:w.env.cost.Cost.ack_grace_us w.ack_owed

(* An ack owed already keeps its hold, and its time. *)
and owe_ack w ~hold seq =
  w.ack_owed <- seq;
  if w.ack_id < 0 then begin
    let ls = lines w in
    w.ack_id <- Delay_line.push_after ls.waits ~delay:hold ~fire:waited ls ~n:0 ack_hold w
  end

and emit w m body =
  m.sent_at <- Engine.now w.env.engine;
  w.env.transmit w.peer ~seq:m.seq ~run:m.run body;
  arm_retrans w m

(* The deadline covers the frame's wait for the medium too: a frame
   queued behind the bus backlog has not been sent yet, so that wait is
   not evidence of loss (the paper's adaptor timed out only frames that
   had gone out on the Megalink). The entry reserves its id where a timer
   per message would have been armed, so expiries run in the same
   places. *)
and arm_retrans w m =
  let ls = lines w in
  let delay = retrans_delay w m + Bus.backlog_us w.env.bus in
  clear_deadline w m;
  m.rt_id <- Delay_line.push_after ls.waits ~delay ~fire:waited ls ~n:0 m w

(* The node's earliest wait ended: the line moves on to the next one
   before the wake, the ack or the expiry is acted on. *)
and waited ls =
  let l = ls.waits in
  let m = Delay_line.head_a l and w = Delay_line.head_b l in
  Delay_line.next l wait_live;
  if m == no_msg then begin
    w.wake_id <- -1;
    start_next w
  end
  else if m == ack_hold then begin
    w.ack_id <- -1;
    if w.ack_owed >= 0 then w.env.ack_due w.peer
  end
  else retrans_expired w m

and retrans_expired w m =
  m.rt_id <- -1;
  if launched w m then begin
    (* the timer expiring IS the loss signal: halve cwnd (at most once
       per RTO) whether we retry or give up *)
    cwnd_on_loss w;
    let max_retrans = w.env.cost.Cost.max_retrans in
    if aimd_on w && m.kind = K_request then
      w.rto_shift <- min max_retrans (max w.rto_shift (m.retries + 1));
    if m.retries >= max_retrans then release w m (fun () -> m.on_done w.peer m.tid Out_timeout)
    else begin
      m.retries <- m.retries + 1;
      transmit w m
    end
  end

(* Free a slot WITHOUT advancing the window base, then run [k]: a
   timeout, or a rejection the peer did not consume ([rejection_consumes]),
   means the sequence number is reused for the next message once the
   window empties (the seed's unflipped bit, generalised). *)
and release w m k =
  retire w m;
  if w.in_flight = 0 then w.next <- w.base;
  k ();
  start_next w

(* The peer refused [m] with a BUSY or an unadvertised ERROR. *)
and reject w m k = if rejection_consumes w.env.cost then resolve w m k else release w m k

(* A cumulative acknowledgement: the peer consumed every slot up to and
   including [a]. A slot held by an unresolved CANCEL stops the walk — a
   CANCEL is resolved by its Cancel_reply body, not the bare ack — and the
   remainder is parked in [parked_ack]. The acked messages are pushed on
   the node's scratch stack, oldest first: retired and sampled newest
   first, then told oldest first. Each is taken off the stack just before
   its [on_done] runs; the ones still to come stay below [top], out of
   reach of a walk that [on_done] starts. *)
and ack w a =
  let extent = dist w w.base w.next in
  let d = dist w w.base a in
  if extent > 0 && d < extent then begin
    let s = w.env.shared in
    let lo = s.top in
    let covered = collect w s a d 0 in
    if covered > 0 then begin
      let hi = s.top in
      for i = hi - 1 downto lo do
        retire w s.acked.(i)
      done;
      w.base <- (w.base + covered) mod space w;
      if w.in_flight = 0 then w.next <- w.base;
      if win w > 1 && tracing w then
        w.env.event (Event.Window_advance { peer = w.peer; base = w.base; in_flight = w.in_flight });
      for i = hi - 1 downto lo do
        rtt_sample w s.acked.(i)
      done;
      cwnd_on_clean_ack w s.acked lo hi;
      for i = lo to hi - 1 do
        let m = s.acked.(i) in
        s.acked.(i) <- no_msg;
        if tracing w then
          w.env.event (Event.Acked { tid = m.tid; peer = w.peer; pkt = Wire.pkt m.body });
        ack_wait_sample w m;
        m.on_done w.peer m.tid Out_acked
      done;
      s.top <- lo;
      start_next w
    end
  end

(* Push the messages in slots [base .. base + d] onto the scratch stack,
   from [off] on, stopping at a CANCEL; the number of slots covered. A
   slot vacated by a timed-out message is covered with nothing pushed. *)
and collect w s a d off =
  if off > d then off
  else begin
    let m = w.slots.((w.base + off) mod space w) in
    if m == no_msg then collect w s a d (off + 1)
    else if m.kind = K_cancel then begin
      if off < d then w.parked_ack <- Some a;
      off
    end
    else begin
      if s.top = Array.length s.acked then begin
        let bigger = Array.make (2 * s.top) no_msg in
        Array.blit s.acked 0 bigger 0 s.top;
        s.acked <- bigger
      end;
      s.acked.(s.top) <- m;
      s.top <- s.top + 1;
      collect w s a d (off + 1)
    end
  end

(* The peer consumed [m]'s slot (and, implicitly, everything before it)
   but answered with a semantic response — ERROR, a windowed BUSY, or a
   CANCEL reply — rather than a plain ack. Advance the window past it and
   hand the outcome to [k]. *)
and resolve w m k =
  ack w ((m.seq - 1 + space w) mod space w);
  retire w m;
  if w.base = m.seq then begin
    w.base <- (m.seq + 1) mod space w;
    (* a parked ack covers slots the peer consumed behind us: its walk
       below clears them and then rewinds [next], so that their numbers
       are never launched again *)
    if w.in_flight = 0 && w.parked_ack = None then w.next <- w.base
  end
  else begin
    (* an unresolved CANCEL ahead of us holds the base; fold our slot
       into the parked ack so the base clears us when it resolves *)
    match w.parked_ack with
    | Some a when dist w w.base a >= dist w w.base m.seq -> ()
    | Some _ | None -> w.parked_ack <- Some m.seq
  end;
  k ();
  (match w.parked_ack with
   | Some a ->
     w.parked_ack <- None;
     ack w a
   | None -> ());
  start_next w

and start_next w =
  let continue = ref true in
  while !continue do
    let now = Engine.now w.env.engine in
    let m = launchable w now in
    if m == no_msg then begin
      (* backing off after a BUSY; wake when the nearest backoff matures *)
      if w.wake_id < 0 && not (Queue.is_empty w.queue) then begin
        let ls = lines w in
        w.wake_id <-
          Delay_line.push_after ls.waits ~delay:(max 1 (next_ready_at w.queue - now)) ~fire:waited
            ls ~n:0 no_msg w
      end;
      continue := false
    end
    (* The DATA of an accepted exchange answers an explicit server
       grant: the handler over there is already parked waiting for it,
       so gating it on a collapsed cwnd can deadlock the window (the
       in-flight REQUESTs it sits behind are BUSY-bounced by that very
       handler). It bypasses the congestion window; the peer's receive
       window still caps it. *)
    else if dist w w.base w.next >= if m.kind = K_put_data then win w else effective w then
      continue := false
    else begin
      if Queue.peek w.queue == m then ignore (Queue.pop w.queue)
      else queue_filter w.queue (fun p -> p != m);
      m.seq <- w.next;
      m.run <- win w > 1 && w.in_flight = 0;
      (* a requeued request starts its retransmission budget over: its
         BUSY is proof of liveness, so retransmissions swallowed by a
         pipelined hold before the nack must not keep eating the
         crash-detection budget across retry cycles. Its old deadline
         was cleared when it left its slot. *)
      m.retries <- 0;
      m.launches <- m.launches + 1;
      w.next <- (w.next + 1) mod space w;
      (* launched messages never share a number: [next] rewinds only
         when nothing is in flight *)
      assert (w.slots.(m.seq) == no_msg);
      w.slots.(m.seq) <- m;
      w.in_flight <- w.in_flight + 1;
      Stats.observe w.env.shared.window_occupancy w.in_flight;
      transmit w m
    end
  done

let send w kind ~tid body on_done =
  if tracing w then w.env.event (Event.Enqueue { tid; peer = w.peer; pkt = Wire.pkt body });
  Queue.push { no_msg with kind; tid; body; on_done } w.queue;
  (* Granted DATA always goes ahead of unsent requests when windowed; at
     window 1 only while the head backs off after a BUSY. *)
  (if kind = K_put_data then
     if win w > 1 then data_first w.queue
     else if (Queue.peek w.queue).ready_at > Engine.now w.env.engine then
       retry_behind_data w.queue);
  start_next w

let drop_queued w ~tid kind =
  queue_filter w.queue (fun m -> not (m.tid = tid && m.kind = kind));
  start_next w

(* ---- responses to launched messages --------------------------------------- *)

(* The oldest launched message for [tid] (of [kind], if given): the slots
   from the base on hold the messages in launch order. *)
let find ?kind w tid =
  let rec go off =
    if off = dist w w.base w.next then None
    else
      let m = w.slots.((w.base + off) mod space w) in
      if m.tid = tid && match kind with Some k -> m.kind = k | None -> true then Some m
      else go (off + 1)
  in
  go 0

(* A BUSY requeues the refused request at the head of the send queue,
   where it backs off, holding back the requests queued behind it -- or,
   at window 1 with granted DATA queued, retries right behind the DATA. *)
let busy w ~tid requeue =
  match find ~kind:K_request w tid with
  | None -> ()
  | Some m ->
    m.busy <- m.busy + 1;
    Stats.incr w.env.stats "req.busy_received";
    let behind_data = win w = 1 && queued w K_put_data in
    let ready_at = if behind_data then 0 else Engine.now w.env.engine + busy_delay w m in
    reject w m (fun () ->
        if requeue () then begin
          m.ready_at <- ready_at;
          queue_push_front w.queue m;
          if behind_data then retry_behind_data w.queue
        end)

let error w ~tid code =
  match find w tid with
  | Some m ->
    let k () = m.on_done w.peer tid (Out_error code) in
    if code = Wire.Err_unadvertised then reject w m k else resolve w m k;
    true
  | None -> false

let cancel_reply w ~tid ok =
  match find ~kind:K_cancel w tid with
  | None -> ()
  | Some m -> resolve w m (fun () -> m.on_done w.peer tid (Out_cancel_reply ok))
