type counters = { scheduled : int; fired : int; cancelled : int; pending : int }

type tag_cost = { tag : string; fired : int; words : int; ns : int }

(* The counters of one source tag: schedules and arms ([count], always
   on) and, while profiling is on, the callbacks fired with the minor
   words they allocated and the nanoseconds they took. *)
type tag_cell = {
  tag : string;
  mutable count : int;
  mutable fired : int;
  mutable words : int;
  mutable ns : int;
}

(* A timer: its callback is allocated once, and arming pushes the record
   itself onto the heap. A one-shot is a timer made by [schedule] and
   armed once. [tm_id] is the id of the armed shot (-1 when disarmed); a
   popped shot whose id no longer matches was disarmed or re-armed since,
   and is dropped. [tm_cell] is its tag's counter, resolved when the
   timer is made ([no_cell] when untagged). *)
type timer = {
  tm_fn : unit -> unit;
  tm_cell : tag_cell;
  mutable tm_id : int;
}

type t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable live : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  (* Every event is a timer shot: the heap's tie-break sequence number is
     the shot's event id, so shots run in one (time, id) order. *)
  shots : timer Heap.t;
  root_rng : Rng.t;
  (* Hot-path profiling. The always-on part is integer bumps, plus a scan
     of the few known tags per *tagged* schedule (a timer resolves its
     tag once, when made). The wall clock is read once per [run] call
     and, only while profiling is on, around each tagged callback; it
     never feeds back into scheduling, so determinism is untouched. *)
  mutable heap_highwater : int;
  mutable cells : tag_cell array;  (* one per tag seen *)
  mutable wall_s : float;  (* wall time accrued inside [run] *)
  mutable profile_gc : bool;
  mutable gc_minor_words : float;
  mutable gc_major_words : float;
  mutable gc_promoted_words : float;
}

exception Stop

let nothing () = ()

(* The cell of an untagged timer, and the tag lookup's miss; nothing is
   ever counted into it. *)
let no_cell = { tag = ""; count = 0; fired = 0; words = 0; ns = 0 }

let no_timer = { tm_fn = nothing; tm_cell = no_cell; tm_id = -1 }

let create ?(seed = 42) () =
  {
    clock = 0;
    next_seq = 0;
    live = 0;
    n_fired = 0;
    n_cancelled = 0;
    shots = Heap.create ~filler:no_timer;
    root_rng = Rng.create ~seed;
    heap_highwater = 0;
    cells = [||];
    wall_s = 0.0;
    profile_gc = false;
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
    gc_promoted_words = 0.0;
  }

let now t = t.clock

let rng t = t.root_rng

(* Tag lookup without hashing: a scan over the few known tags. The scan
   is a top-level function and returns [no_cell] for a miss: a local
   closure or an option here would allocate on every tagged schedule. *)
let rec find_cell cells tag i =
  if i = Array.length cells then no_cell
  else if String.equal cells.(i).tag tag then cells.(i)
  else find_cell cells tag (i + 1)

let tag_cell t tag =
  let c = find_cell t.cells tag 0 in
  if c != no_cell then c
  else begin
    let c = { tag; count = 0; fired = 0; words = 0; ns = 0 } in
    t.cells <- Array.append t.cells [| c |];
    c
  end

let note_depth t =
  let depth = Heap.length t.shots in
  if depth > t.heap_highwater then t.heap_highwater <- depth

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let timer ?tag t fn =
  let tm_cell = match tag with None -> no_cell | Some tag -> tag_cell t tag in
  { tm_fn = fn; tm_cell; tm_id = -1 }

let armed tm = tm.tm_id >= 0

let arm_at t tm ~time ~id =
  if time < t.clock then invalid_arg "Engine.arm_at: time in the past";
  if tm.tm_id <> id then begin
    if tm.tm_id < 0 then t.live <- t.live + 1;
    tm.tm_id <- id;
    let c = tm.tm_cell in
    if c != no_cell then c.count <- c.count + 1;
    Heap.push t.shots ~key:time ~seq:id tm;
    note_depth t
  end

let arm t tm ~delay =
  if delay < 0 then invalid_arg "Engine.arm: negative delay";
  arm_at t tm ~time:(t.clock + delay) ~id:(reserve t)

(* A one-shot is a fresh timer armed once: one 4-word record. *)
let schedule ?tag t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  arm_at t (timer ?tag t fn) ~time:(t.clock + delay) ~id:(reserve t)

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

(* A cell made for a timer that was never armed has counted nothing and
   is left out, as if it did not exist. *)
let tag_counts t =
  List.filter_map
    (fun c -> if c.count > 0 then Some (c.tag, c.count) else None)
    (Array.to_list t.cells)
  |> List.sort compare

let tag_costs t =
  List.filter_map
    (fun (c : tag_cell) ->
      if c.fired > 0 then
        Some ({ tag = c.tag; fired = c.fired; words = c.words; ns = c.ns } : tag_cost)
      else None)
    (Array.to_list t.cells)
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
  List.iter
    (fun (tag, n) -> Soda_obs.Metrics.set_gauge m (prefix ^ ".tag." ^ tag) n)
    (tag_counts t);
  if t.profile_gc then begin
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_minor_words")
      (int_of_float t.gc_minor_words);
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_promoted_words")
      (int_of_float t.gc_promoted_words);
    Soda_obs.Metrics.set_gauge m (prefix ^ ".gc_major_words")
      (int_of_float t.gc_major_words)
  end

let stop _t = raise Stop

(* Run one callback with its minor words and wall nanoseconds charged to
   its tag. [Gc.minor_words] and the monotonic clock return unboxed, so
   the measurement allocates nothing of its own. *)
let[@inline never] profiled c fn =
  if c == no_cell then fn ()
  else begin
    let words0 = Gc.minor_words () in
    let ns0 = Monotonic_clock.now () in
    fn ();
    c.fired <- c.fired + 1;
    c.words <- c.words + int_of_float (Gc.minor_words () -. words0);
    c.ns <- c.ns + Int64.to_int (Int64.sub (Monotonic_clock.now ()) ns0)
  end

(* Pop the least (time, id) shot. One that is no longer its timer's
   armed shot is dropped the way a cancelled event was: the clock does
   not move and nothing counts as fired. *)
let step t ~until =
  let q = t.shots in
  if Heap.is_empty q then false
  else begin
    let time = Heap.min_key q in
    if time > until then false
    else begin
      let id = Heap.min_seq q in
      let tm = Heap.min_value q in
      Heap.drop_min q;
      if tm.tm_id = id then begin
        tm.tm_id <- -1;
        t.clock <- time;
        t.live <- t.live - 1;
        t.n_fired <- t.n_fired + 1;
        if t.profile_gc then profiled tm.tm_cell tm.tm_fn else tm.tm_fn ()
      end;
      true
    end
  end

let run ?(until = max_int) t =
  let wall0 = Unix.gettimeofday () in
  (* Minor words from [Gc.minor_words]: on OCaml 5.1 [Gc.quick_stat]'s
     move only at a minor collection, and [Gc.counters] reads about an
     eighth of the words allocated since the last one. Promoted and
     major words move only at collections, and both read them right. *)
  let gc0 = if t.profile_gc then Some (Gc.minor_words (), Gc.counters ()) else None in
  let stopped =
    try
      while step t ~until do
        ()
      done;
      false
    with Stop -> true
  in
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. wall0);
  (match gc0 with
   | None -> ()
   | Some (minor0, (_, promoted0, major0)) ->
     let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
     t.gc_minor_words <- t.gc_minor_words +. (minor1 -. minor0);
     t.gc_promoted_words <- t.gc_promoted_words +. (promoted1 -. promoted0);
     t.gc_major_words <- t.gc_major_words +. (major1 -. major0));
  (* When the loop ended on the horizon or an empty queue, the clock still
     reflects the last executed event; advance it to the horizon so that
     back-to-back [run_for] calls cover contiguous intervals. After [stop]
     it stays where the stopping callback ran: a later [run] fires the
     events still queued, and they must not lie behind the clock. *)
  if (not stopped) && until <> max_int && t.clock < until then t.clock <- until;
  t.clock

let run_for t ~duration = run ~until:(t.clock + duration) t
