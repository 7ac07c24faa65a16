module Metrics = Soda_obs.Metrics
module Cost = Soda_base.Cost_model

type cls = In_order | Out_of_order | Dup | Resync | No_sync | Unsequenced

type stashed = Already_stashed | Stashed | Replaced_stale

let k_stale_replaced = Metrics.counter_key "pkt.window_stale_replaced"
let k_buffered = Metrics.counter_key "pkt.window_buffered"
let k_stale_flushed = Metrics.counter_key "pkt.window_stale_flushed"
let k_busy_deferred = Metrics.counter_key "req.busy_deferred"
let k_held_nacked = Metrics.counter_key "req.held_nacked"

type shared = { window : int; space : int; held_limit : int; stats : Metrics.t }

let shared stats cost =
  { window = Cost.transport_window cost; space = Cost.seq_space cost;
    held_limit = max 1 (cost.Cost.max_retrans - 2); stats }

(* Slot [i] is sequence number [i]. At window 1 the space is {0,1} and the
   only record ever read is the one just behind the base: the seed's
   single last-consumed/last-response pair. *)
type t = {
  sh : shared;
  mutable base : int;  (* -1 = take any *)
  ids : int array;  (* behind the window: the last consume's [ident], or 0 *)
  mutable x : extra;
}

(* What a connection needs only once it stashes a packet (never at window
   1) or stores a response (rare): made then, until then [no_extra]. *)
and extra = {
  pkts : Wire.rx array;  (* the stashed packet, or [none]; [none] behind the window *)
  resps : Wire.body array;  (* behind the window: the response to replay; [Wire.Ack] = none *)
  mutable stashed : int;  (* slots of [pkts] that are not [none] *)
  mutable held : Wire.rx;
      (* the REQUEST last held at the head, or [none]: not [none] exactly
         while the connection waits for input-buffer capacity *)
  mutable retries : int;  (* retransmissions of [held] swallowed *)
}

let none = { Wire.src = -1; reliable = false; seq = 0; ack = None; run = false; body = Wire.Ack }
let no_extra = { pkts = [||]; resps = [||]; stashed = 0; held = none; retries = 0 }
let create sh = { sh; base = -1; ids = Array.make sh.space 0; x = no_extra }
let nobody sh = { sh; base = -1; ids = [||]; x = no_extra }

let extra w =
  if w.x == no_extra then
    w.x <- { no_extra with pkts = Array.make w.sh.space none; resps = Array.make w.sh.space Wire.Ack };
  w.x

(* A message's identity, for telling a duplicate from a reused number:
   its tid above its wire kind (1 to 12), one int. 0 is no message. *)
let ident pkt = (Wire.tid pkt.Wire.body lsl 4) lor Wire.kind pkt.Wire.body

(* off the wire: reduce before indexing *)
let slot sh seq = seq mod sh.space

let base w = w.base
let cum_ack w = if w.base < 0 then -1 else (w.base - 1 + w.sh.space) mod w.sh.space
let active w = w.x.stashed > 0

let classify w pkt =
  match pkt.Wire.body with
  | Wire.Request _ | Wire.Accept _ | Wire.Put_data _ | Wire.Cancel_request _ ->
    let sh = w.sh and base = w.base in
    if base < 0 then if sh.window = 1 || pkt.Wire.run then In_order else No_sync
    else begin
      let d = (pkt.Wire.seq - base + sh.space) mod sh.space in
      if d = 0 then In_order
      else if d < sh.window then Out_of_order
        (* every number behind the window keeps its last consume's
           identity: a delayed duplicate always finds it and is never
           taken for reuse *)
      else if w.ids.(slot sh pkt.Wire.seq) = ident pkt then Dup
      else Resync
    end
  | _ -> Unsequenced

let consume w ~resync pkt =
  let sh = w.sh and x = w.x in
  if resync then begin
    Array.fill w.ids 0 sh.space 0;
    Array.fill x.pkts 0 (Array.length x.pkts) none;
    x.stashed <- 0
  end;
  let i = slot sh pkt.Wire.seq and id = ident pkt in
  let old = if x.stashed = 0 then none else x.pkts.(i) in
  if old != none then begin
    x.pkts.(i) <- none;
    x.stashed <- x.stashed - 1
  end;
  w.ids.(i) <- id;
  if x != no_extra then x.resps.(i) <- Wire.Ack;
  w.base <- (i + 1) mod sh.space;
  let displaced = old != none && ident old <> id in
  if displaced then Metrics.count sh.stats k_stale_replaced;
  displaced

let respond w pkt body = (extra w).resps.(slot w.sh pkt.Wire.seq) <- body

let response w pkt = if w.x == no_extra then Wire.Ack else w.x.resps.(slot w.sh pkt.Wire.seq)

let stash w pkt =
  let i = slot w.sh pkt.Wire.seq and x = extra w in
  let old = x.pkts.(i) in
  if old != none && ident old = ident pkt then Already_stashed
  else begin
    x.pkts.(i) <- pkt;
    Metrics.count w.sh.stats k_buffered;
    if old == none then begin
      x.stashed <- x.stashed + 1;
      Stashed
    end
    else begin
      Metrics.count w.sh.stats k_stale_replaced;
      Replaced_stale
    end
  end

let flush_run_stale w pkt =
  let x = w.x in
  if x.stashed = 0 then 0
  else begin
    let sh = w.sh and id = ident pkt in
    let keep = slot sh pkt.Wire.seq in
    let n = ref 0 in
    for i = 0 to sh.space - 1 do
      let p = x.pkts.(i) in
      if p != none && not (i = keep && ident p = id) then begin
        x.pkts.(i) <- none;
        incr n
      end
    done;
    x.stashed <- x.stashed - !n;
    if !n > 0 then Metrics.count sh.stats k_stale_flushed;
    !n
  end

let head w =
  let x = w.x in
  if x.stashed = 0 then none else if w.base < 0 then x.held else x.pkts.(w.base)

let head_copy w pkt =
  let h = head w in
  if h != none && h.Wire.seq = pkt.Wire.seq && ident h = ident pkt then h else none

let hold w pkt =
  let x = extra w in
  Metrics.count w.sh.stats k_busy_deferred;
  let fresh = x.held == none in
  if x.held != pkt then begin
    x.held <- pkt;
    x.retries <- 0
  end;
  fresh

let release w = w.x.held <- none

let holding w = w.x.held != none

let reuse w =
  if active w || holding w then invalid_arg "Recv_window.reuse: a packet is stashed or held";
  w.base <- -1;
  Array.fill w.ids 0 w.sh.space 0;
  w.x <- no_extra

let held_retry w pkt =
  let x = w.x in
  head w == pkt && x.held == pkt
  && begin
    x.retries <- x.retries + 1;
    x.retries >= w.sh.held_limit && (Metrics.count w.sh.stats k_held_nacked; true)
  end
