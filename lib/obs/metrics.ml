(* Counters, gauges and log-scale histograms.

   Histograms use exact unit buckets below [linear_max] and 32 sub-buckets
   per power-of-two octave above it (HdrHistogram-style), so percentile
   estimates carry at most ~3% relative error while small integer samples
   (packet counts, microsecond costs of cheap operations) stay exact. *)

let linear_max = 64
let sub_buckets = 32

(* Octaves cover bit lengths 7..63 on 64-bit ints. *)
let bucket_count = linear_max + ((63 - 6) * sub_buckets)

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
}

let bit_length v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index v =
  if v < linear_max then v
  else begin
    let k = bit_length v in
    let base = 1 lsl (k - 1) in
    let sub = (v - base) * sub_buckets / base in
    linear_max + ((k - 7) * sub_buckets) + sub
  end

(* Upper bound of the bucket at [idx]: the value reported for percentiles
   falling inside it (clamped to the observed min/max). *)
let bucket_upper idx =
  if idx < linear_max then idx
  else begin
    let octave = (idx - linear_max) / sub_buckets in
    let sub = (idx - linear_max) mod sub_buckets in
    let base = 1 lsl (octave + 6) in
    base + ((sub + 1) * base / sub_buckets) - 1
  end

module Histogram = struct
  type t = histogram

  let create () =
    { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
      buckets = Array.make bucket_count 0 }

  let observe h v =
    let v = max 0 v in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let idx = bucket_index v in
    h.buckets.(idx) <- h.buckets.(idx) + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let min_value h = if h.h_count = 0 then 0 else h.h_min
  let max_value h = if h.h_count = 0 then 0 else h.h_max

  let mean h =
    if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

  let percentile h p =
    if h.h_count = 0 then 0
    else begin
      let p = if Float.is_nan p then 0.0 else Float.max 0.0 (Float.min 100.0 p) in
      if p <= 0.0 then min_value h
      else if p >= 100.0 then max_value h
      else begin
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
        let rank = max 1 (min h.h_count rank) in
        let rec walk idx cum =
          if idx >= bucket_count then max_value h
          else begin
            let cum = cum + h.buckets.(idx) in
            if cum >= rank then min (max (bucket_upper idx) h.h_min) h.h_max
            else walk (idx + 1) cum
          end
        in
        walk 0 0
      end
    end
end

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8 }

(* Exception-based lookups throughout this module: [Hashtbl.find_opt]
   allocates a [Some] per hit, and counter bumps sit on the simulator's
   per-packet hot path (several per packet), so the option garbage was
   measurable at scale. *)
let cell table name =
  match Hashtbl.find table name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.replace table name r;
    r

let counter_cell t name = cell t.counters name

let incr t name = Stdlib.incr (cell t.counters name)

let add t name n =
  let r = cell t.counters name in
  r := !r + n

let counter t name =
  match Hashtbl.find t.counters name with r -> !r | exception Not_found -> 0

(* Slot cells start as these sentinels, never written: a name the node
   never touches stays absent from its exports. *)
let no_ref = ref 0

let no_histogram =
  { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int; buckets = [||] }

type counter_slot = { c_metrics : t; c_name : string; mutable c_ref : int ref }

let counter_slot t name = { c_metrics = t; c_name = name; c_ref = no_ref }

let resolve s = if s.c_ref == no_ref then s.c_ref <- counter_cell s.c_metrics s.c_name

let bump s =
  resolve s;
  Stdlib.incr s.c_ref

let bump_by s n =
  resolve s;
  s.c_ref := !(s.c_ref) + n

type histogram_slot = { h_metrics : t; h_name : string; mutable h_cell : histogram }

let histogram_slot t name = { h_metrics = t; h_name = name; h_cell = no_histogram }

let set_gauge t name v = cell t.gauges name := v

let gauge t name =
  match Hashtbl.find t.gauges name with r -> !r | exception Not_found -> 0

let histogram_cell t name =
  match Hashtbl.find t.histograms name with
  | h -> h
  | exception Not_found ->
    let h = Histogram.create () in
    Hashtbl.replace t.histograms name h;
    h

let observe t name v = Histogram.observe (histogram_cell t name) v

let sample s v =
  if s.h_cell == no_histogram then s.h_cell <- histogram_cell s.h_metrics s.h_name;
  Histogram.observe s.h_cell v

let histogram t name = Hashtbl.find_opt t.histograms name

let names table = Hashtbl.fold (fun name _ acc -> name :: acc) table [] |> List.sort compare

let counter_names t = names t.counters
let gauge_names t = names t.gauges
let histogram_names t = names t.histograms

let pp ppf t =
  List.iter
    (fun name -> Format.fprintf ppf "counter %s: %d@." name (counter t name))
    (counter_names t);
  List.iter
    (fun name -> Format.fprintf ppf "gauge %s: %d@." name (gauge t name))
    (gauge_names t);
  List.iter
    (fun name ->
      match histogram t name with
      | None -> ()
      | Some h ->
        Format.fprintf ppf
          "histogram %s: n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d@." name
          (Histogram.count h) (Histogram.mean h) (Histogram.percentile h 50.0)
          (Histogram.percentile h 95.0) (Histogram.percentile h 99.0)
          (Histogram.max_value h))
    (histogram_names t)
