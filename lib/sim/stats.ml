(* Per-node measurement bag, backed by the [Soda_obs.Metrics] registry.

   Counters and latency series live in the registry (series as log-scale
   histograms — O(buckets) memory instead of the raw sample lists this
   module used to keep). Microsecond accumulators keep their own table so
   [counter_names] still lists only true counters, as callers expect. *)

module Metrics = Soda_obs.Metrics

type t = {
  metrics : Metrics.t;
  times : (string, int ref) Hashtbl.t;
}

let create () = { metrics = Metrics.create (); times = Hashtbl.create 32 }

let registry t = t.metrics

let incr t name = Metrics.incr t.metrics name
let add t name n = Metrics.add t.metrics name n
let counter t name = Metrics.counter t.metrics name
let counter_cell t name = Metrics.counter_cell t.metrics name
let histogram_cell t name = Metrics.histogram_cell t.metrics name

(* Cells resolved at their first use. A name the node never touches
   stays absent from its exports, and a histogram (1,888 words) is made
   only where something is sampled. [no_ref] is never written. *)
let no_ref = ref 0

type counter_slot = { c_stats : t; c_name : string; mutable c_ref : int ref }

let counter_slot t name = { c_stats = t; c_name = name; c_ref = no_ref }

let bump s =
  if s.c_ref == no_ref then s.c_ref <- counter_cell s.c_stats s.c_name;
  Stdlib.incr s.c_ref

type sample_slot = { s_stats : t; s_name : string; mutable s_hist : Metrics.histogram option }

let sample_slot t name = { s_stats = t; s_name = name; s_hist = None }

let observe s v =
  match s.s_hist with
  | Some h -> Metrics.Histogram.observe h v
  | None ->
    let h = histogram_cell s.s_stats s.s_name in
    s.s_hist <- Some h;
    Metrics.Histogram.observe h v

(* Exception-based lookup: [find_opt] would allocate a [Some] per
   accounting call, and [add_time] runs several times per packet. *)
let time_cell t name =
  match Hashtbl.find t.times name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.replace t.times name r;
    r

let time_ref = time_cell

type time_slot = { t_stats : t; t_name : string; mutable t_ref : int ref }

let time_slot t name = { t_stats = t; t_name = name; t_ref = no_ref }

let charge s us =
  if s.t_ref == no_ref then s.t_ref <- time_cell s.t_stats s.t_name;
  s.t_ref := !(s.t_ref) + us

let add_time t name us =
  let r = time_cell t name in
  r := !r + us

let time_us t name = match Hashtbl.find_opt t.times name with Some r -> !r | None -> 0
let time_ms t name = float_of_int (time_us t name) /. 1000.0

let sample t name v = Metrics.observe t.metrics name v

let histogram t name = Metrics.histogram t.metrics name

let count t name =
  match histogram t name with Some h -> Metrics.Histogram.count h | None -> 0

let mean_us t name =
  match histogram t name with Some h -> Metrics.Histogram.mean h | None -> 0.0

let max_us t name =
  match histogram t name with Some h -> Metrics.Histogram.max_value h | None -> 0

let percentile_us t name p =
  match histogram t name with Some h -> Metrics.Histogram.percentile h p | None -> 0

let counter_names t = Metrics.counter_names t.metrics

let pp ppf t =
  let names = counter_names t in
  List.iter (fun name -> Format.fprintf ppf "%s: %d@." name (counter t name)) names;
  Hashtbl.iter
    (fun name r -> Format.fprintf ppf "%s: %.3f ms@." name (float_of_int !r /. 1000.0))
    t.times
