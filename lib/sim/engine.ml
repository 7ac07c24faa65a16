type counters = { scheduled : int; fired : int; cancelled : int; pending : int }

(* A reusable timer: its callback is allocated once, and arming pushes the
   record itself onto the timer heap. [tm_id] is the id of the armed shot
   (-1 when disarmed); a popped shot whose id no longer matches was
   disarmed or re-armed since, and is dropped. *)
type timer = {
  tm_fn : unit -> unit;
  tm_tag : string option;
  mutable tm_id : int;
}

type t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable live : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  (* One-shot callbacks ride the heap directly; the heap's tie-break
     sequence number doubles as the event id, so a schedule allocates no
     per-event record at all (the heap itself is structure-of-arrays).
     Timer shots live in a second heap of timer records; ids come from the
     same counter, so the two heaps interleave in one (time, id) order. *)
  queue : (unit -> unit) Heap.t;
  timers : timer Heap.t;
  root_rng : Rng.t;
  (* Hot-path profiling. The always-on part is integer bumps and one
     hashtable hit per *tagged* schedule or arm; wall-clock is read once
     per [run] call, never inside the event loop, and never feeds back
     into scheduling, so determinism is untouched. *)
  mutable heap_highwater : int;
  tag_counts : (string, int ref) Hashtbl.t;
  mutable wall_s : float;  (* wall time accrued inside [run] *)
  mutable profile_gc : bool;
  mutable gc_minor_words : float;
  mutable gc_major_words : float;
  mutable gc_promoted_words : float;
}

exception Stop

let nothing () = ()

let no_timer = { tm_fn = nothing; tm_tag = None; tm_id = -1 }

let create ?(seed = 42) () =
  {
    clock = 0;
    next_seq = 0;
    live = 0;
    n_fired = 0;
    n_cancelled = 0;
    queue = Heap.create ~filler:nothing;
    timers = Heap.create ~filler:no_timer;
    root_rng = Rng.create ~seed;
    heap_highwater = 0;
    tag_counts = Hashtbl.create 8;
    wall_s = 0.0;
    profile_gc = false;
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
    gc_promoted_words = 0.0;
  }

let now t = t.clock

let rng t = t.root_rng

let tally t tag =
  match tag with
  | None -> ()
  | Some tag ->
    (* exception-based lookup: [find_opt] would allocate a [Some] per
       tagged schedule *)
    (match Hashtbl.find t.tag_counts tag with
     | r -> incr r
     | exception Not_found -> Hashtbl.replace t.tag_counts tag (ref 1))

let note_depth t =
  let depth = Heap.length t.queue + Heap.length t.timers in
  if depth > t.heap_highwater then t.heap_highwater <- depth

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule ?tag t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let seq = reserve t in
  t.live <- t.live + 1;
  tally t tag;
  Heap.push t.queue ~key:(t.clock + delay) ~seq fn;
  note_depth t

(* ---- reusable timers ---------------------------------------------------- *)

let timer ?tag _t fn = { tm_fn = fn; tm_tag = tag; tm_id = -1 }

let armed tm = tm.tm_id >= 0

let arm_at t tm ~time ~id =
  if time < t.clock then invalid_arg "Engine.arm_at: time in the past";
  if tm.tm_id <> id then begin
    if tm.tm_id < 0 then t.live <- t.live + 1;
    tm.tm_id <- id;
    tally t tm.tm_tag;
    Heap.push t.timers ~key:time ~seq:id tm;
    note_depth t
  end

let arm t tm ~delay =
  if delay < 0 then invalid_arg "Engine.arm: negative delay";
  arm_at t tm ~time:(t.clock + delay) ~id:(reserve t)

let disarm t tm =
  if tm.tm_id >= 0 then begin
    tm.tm_id <- -1;
    t.live <- t.live - 1;
    t.n_cancelled <- t.n_cancelled + 1
  end

let pending t = t.live

let counters t =
  { scheduled = t.next_seq; fired = t.n_fired; cancelled = t.n_cancelled;
    pending = t.live }

let heap_highwater t = t.heap_highwater

let wall_seconds t = t.wall_s

let events_per_sec t =
  if t.wall_s > 0.0 then float_of_int t.n_fired /. t.wall_s else 0.0

let tag_counts t =
  Hashtbl.fold (fun tag r acc -> (tag, !r) :: acc) t.tag_counts []
  |> List.sort compare

let set_profile_gc t on = t.profile_gc <- on

let gc_words t = (t.gc_minor_words, t.gc_promoted_words, t.gc_major_words)

(* Publish the counters as gauges into a metrics registry. *)
let export_metrics t m ~prefix =
  Soda_obs.Metrics.set_gauge m (prefix ^ ".scheduled") t.next_seq;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".fired") t.n_fired;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".cancelled") t.n_cancelled;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".pending") t.live;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".clock_us") t.clock;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".heap_highwater") t.heap_highwater;
  Soda_obs.Metrics.set_gauge m (prefix ^ ".wall_us") (int_of_float (t.wall_s *. 1e6));
  Soda_obs.Metrics.set_gauge m (prefix ^ ".events_per_sec")
    (int_of_float (events_per_sec t));
  Hashtbl.iter
    (fun tag r -> Soda_obs.Metrics.set_gauge m (prefix ^ ".tag." ^ tag) !r)
    t.tag_counts;
  if t.profile_gc then begin
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_minor_words")
      (int_of_float t.gc_minor_words);
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_promoted_words")
      (int_of_float t.gc_promoted_words);
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_major_words")
      (int_of_float t.gc_major_words)
  end

let stop _t = raise Stop

(* Pop the lesser (time, id) of the two heap heads. A timer shot that is
   no longer its timer's armed one is dropped the way a cancelled event
   was: the clock does not move and nothing counts as fired. *)
let step t ~until =
  let q = t.queue and tq = t.timers in
  let from_timers =
    (not (Heap.is_empty tq))
    && (Heap.is_empty q
       ||
       let k = Heap.min_key q and kt = Heap.min_key tq in
       kt < k || (kt = k && Heap.min_seq tq < Heap.min_seq q))
  in
  if from_timers then begin
    let time = Heap.min_key tq in
    if time > until then false
    else begin
      let id = Heap.min_seq tq in
      let tm = Heap.min_value tq in
      Heap.drop_min tq;
      if tm.tm_id = id then begin
        tm.tm_id <- -1;
        t.clock <- time;
        t.live <- t.live - 1;
        t.n_fired <- t.n_fired + 1;
        tm.tm_fn ()
      end;
      true
    end
  end
  else if Heap.is_empty q then false
  else begin
    let time = Heap.min_key q in
    if time > until then false
    else begin
      let fn = Heap.min_value q in
      Heap.drop_min q;
      t.clock <- time;
      t.live <- t.live - 1;
      t.n_fired <- t.n_fired + 1;
      fn ();
      true
    end
  end

let run ?(until = max_int) t =
  let wall0 = Unix.gettimeofday () in
  let gc0 = if t.profile_gc then Some (Gc.quick_stat ()) else None in
  (try
     while step t ~until do
       ()
     done
   with Stop -> ());
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. wall0);
  (match gc0 with
   | None -> ()
   | Some g0 ->
     let g1 = Gc.quick_stat () in
     t.gc_minor_words <- t.gc_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
     t.gc_promoted_words <-
       t.gc_promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
     t.gc_major_words <- t.gc_major_words +. (g1.Gc.major_words -. g0.Gc.major_words));
  (* If we stopped on the time horizon rather than queue exhaustion, the
     clock still reflects the last executed event; advance it to the horizon
     so that back-to-back [run_for] calls cover contiguous intervals. *)
  if until <> max_int && t.clock < until then t.clock <- until;
  t.clock

let run_for t ~duration = run ~until:(t.clock + duration) t
