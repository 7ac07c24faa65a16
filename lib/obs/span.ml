(* Request-lifecycle spans, derived from the typed event stream.

   A span opens at the requester's REQUEST trap and closes at its
   completion interrupt. In between, requester-side events drive a phase
   machine; the resulting segments attribute every microsecond of the
   request's life to one protocol phase, which is how the paper's
   "Breakdown of Communications Overhead" is re-derived without
   hand-placed accounting calls. *)

type phase =
  | Queued  (** trapped, waiting behind the connection's stop-and-wait queue *)
  | On_wire  (** REQUEST transmitted, awaiting acknowledgement *)
  | Busy_backoff  (** BUSY-nacked, parked between retries *)
  | Awaiting_accept  (** delivered (acked); server handler has it *)
  | Accept_transfer  (** ACCEPT arrived; data exchange finishing *)

let phase_name = function
  | Queued -> "queued"
  | On_wire -> "on-wire"
  | Busy_backoff -> "busy-backoff"
  | Awaiting_accept -> "awaiting-accept"
  | Accept_transfer -> "accept-transfer"

let all_phases = [ Queued; On_wire; Busy_backoff; Awaiting_accept; Accept_transfer ]

(* Forward progress rank; BUSY cycles with the wire before delivery. *)
let rank = function
  | Queued -> 0
  | On_wire | Busy_backoff -> 1
  | Awaiting_accept -> 2
  | Accept_transfer -> 3

type segment = { phase : phase; seg_start_us : int; seg_end_us : int }

type t = {
  tid : int;
  mid : int;  (** requester machine *)
  dst : int;
  pattern : int;
  start_us : int;
  end_us : int option;  (** [None] while the request was still live at capture *)
  status : string option;
  segments : segment list;
}

type building = {
  mutable b_phase : phase;
  mutable b_phase_start : int;
  mutable b_segments : segment list;  (* reverse *)
  b_span : t;
}

let of_events events =
  let open Event in
  let live : (int, building) Hashtbl.t = Hashtbl.create 32 in
  let finished = ref [] in
  let close_segment b at =
    if at > b.b_phase_start then
      b.b_segments <-
        { phase = b.b_phase; seg_start_us = b.b_phase_start; seg_end_us = at }
        :: b.b_segments
  in
  let transition b at phase =
    if phase <> b.b_phase then begin
      close_segment b at;
      b.b_phase <- phase;
      b.b_phase_start <- at
    end
  in
  List.iter
    (fun ev ->
      match ev.kind with
      | Trap { tid; dst; pattern; put_size = _; get_size = _ } ->
        let span =
          { tid; mid = ev.mid; dst; pattern; start_us = ev.time_us; end_us = None;
            status = None; segments = [] }
        in
        Hashtbl.replace live tid
          { b_phase = Queued; b_phase_start = ev.time_us; b_segments = []; b_span = span }
      | Tx { tid; pkt = P_request; _ } ->
        (match Hashtbl.find_opt live tid with
         | Some b when b.b_span.mid = ev.mid && rank b.b_phase < 2 ->
           transition b ev.time_us On_wire
         | _ -> ())
      | Rx { tid; pkt = P_busy; _ } ->
        (match Hashtbl.find_opt live tid with
         | Some b when b.b_span.mid = ev.mid && rank b.b_phase < 2 ->
           transition b ev.time_us Busy_backoff
         | _ -> ())
      | Acked { tid; pkt = P_request; _ } ->
        (match Hashtbl.find_opt live tid with
         | Some b when b.b_span.mid = ev.mid && rank b.b_phase < 2 ->
           transition b ev.time_us Awaiting_accept
         | _ -> ())
      | Rx { tid; pkt = P_accept; _ } ->
        (match Hashtbl.find_opt live tid with
         | Some b when b.b_span.mid = ev.mid -> transition b ev.time_us Accept_transfer
         | _ -> ())
      | Complete { tid; status } ->
        (match Hashtbl.find_opt live tid with
         | Some b when b.b_span.mid = ev.mid ->
           close_segment b ev.time_us;
           Hashtbl.remove live tid;
           finished :=
             { b.b_span with end_us = Some ev.time_us; status = Some (status_name status);
               segments = List.rev b.b_segments }
             :: !finished
         | _ -> ())
      | _ -> ())
    events;
  (* Requests still open at capture time: emit with whatever segments have
     closed so far. *)
  Hashtbl.iter
    (fun _ b -> finished := { b.b_span with segments = List.rev b.b_segments } :: !finished)
    live;
  List.sort (fun a b -> compare (a.start_us, a.tid) (b.start_us, b.tid)) !finished

let duration_us span =
  match span.end_us with Some e -> Some (e - span.start_us) | None -> None

(* Total microseconds per phase across the given spans. *)
let breakdown spans =
  let totals = List.map (fun p -> (p, ref 0)) all_phases in
  List.iter
    (fun span ->
      List.iter
        (fun seg ->
          let r = List.assoc seg.phase totals in
          r := !r + (seg.seg_end_us - seg.seg_start_us))
        span.segments)
    spans;
  List.map (fun (p, r) -> (p, !r)) totals

let pp ppf span =
  Format.fprintf ppf "span #%d %d->%d [%d..%s]%s" span.tid span.mid span.dst span.start_us
    (match span.end_us with Some e -> string_of_int e | None -> "open")
    (match span.status with Some s -> " " ^ s | None -> "");
  List.iter
    (fun seg ->
      Format.fprintf ppf "@.  %-16s %8d..%8d (%d us)" (phase_name seg.phase)
        seg.seg_start_us seg.seg_end_us
        (seg.seg_end_us - seg.seg_start_us))
    span.segments
