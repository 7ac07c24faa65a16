(* The per-network event sink. All layers share one recorder; when tracing
   is off an [emit] is a single branch (call sites in hot paths test
   [tracing] before building the event payload, so nothing allocates). *)

type t = {
  mutable tracing : bool;
  mutable causal : bool;
  mutable next_trace : int;  (* trace-id mint *)
  mutable next_span : int;  (* span-id mint, shared by every node *)
  mutable events : Event.t list;  (* newest first *)
  mutable n_events : int;
  metrics : Metrics.t;
}

let create ?(tracing = false) () =
  { tracing; causal = false; next_trace = 0; next_span = 0; events = [];
    n_events = 0; metrics = Metrics.create () }

let tracing t = t.tracing
let set_tracing t flag = t.tracing <- flag

let causal t = t.causal
let set_causal t flag = t.causal <- flag

(* Minting only increments two counters: enabling causal tracing never
   schedules engine work, so simulated timing is byte-identical with it
   on or off (the ids just ride events and frame metadata). *)
let mint_root t =
  if not t.causal then None
  else begin
    let trace = t.next_trace and span = t.next_span in
    t.next_trace <- trace + 1;
    t.next_span <- span + 1;
    Some (Causal.root ~trace ~span)
  end

let mint_child t parent =
  if not t.causal then None
  else begin
    let span = t.next_span in
    t.next_span <- span + 1;
    Some (Causal.child parent ~span)
  end

let metrics t = t.metrics

let emit t ?ctx ~time_us ~mid kind =
  if t.tracing then begin
    t.events <- { Event.time_us; mid; kind; ctx } :: t.events;
    t.n_events <- t.n_events + 1
  end

(* Events in chronological order. Same-instant events keep emission order. *)
let events t = List.rev t.events

let length t = t.n_events

let clear t =
  t.events <- [];
  t.n_events <- 0
