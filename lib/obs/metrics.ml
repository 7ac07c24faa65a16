(* Counters, gauges and log-scale histograms.

   Histograms use exact unit buckets below [linear_max] and 32 sub-buckets
   per power-of-two octave above it (HdrHistogram-style), so percentile
   estimates carry at most ~3% relative error while small integer samples
   (packet counts, microsecond costs of cheap operations) stay exact. *)

let linear_max = 64
let sub_buckets = 32

(* OCaml ints have 63 bits, so a non-negative sample has a bit length of
   at most 62: octaves cover bit lengths 7..62. *)
let bucket_count = linear_max + ((62 - 6) * sub_buckets)

(* A histogram stores only the span of bucket indices its samples have
   reached: [counts.(i)] is bucket [lo + i]. It starts with no storage and
   grows by doubling towards each sample that falls outside, so a
   histogram whose samples stay within one octave holds a few dozen
   words, not all [bucket_count]. *)
type histogram = {
  mutable h_count : int;
  mutable h_sum : int;  (* the total's low 62 bits *)
  mutable h_carry : int;  (* and its carries: the total is h_carry·2^62 + h_sum *)
  mutable h_min : int;
  mutable h_max : int;
  mutable lo : int;
  mutable counts : int array;
}

let bit_length v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* [base / sub_buckets] is exact ([base] ≥ 64), and dividing by it cannot
   wrap the way [(v - base) * sub_buckets] does for bit lengths ≥ 59. *)
let bucket_index v =
  if v < linear_max then v
  else begin
    let k = bit_length v in
    let base = 1 lsl (k - 1) in
    let sub = (v - base) / (base / sub_buckets) in
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
    base + ((sub + 1) * (base / sub_buckets)) - 1
  end

module Histogram = struct
  type t = histogram

  let create () =
    { h_count = 0; h_sum = 0; h_carry = 0; h_min = max_int; h_max = min_int; lo = 0;
      counts = [||] }

  (* Widen the span to take [idx]: at least double it, towards [idx],
     within [0, bucket_count). *)
  let grow h idx =
    let len = Array.length h.counts in
    let first = if len = 0 then idx else min h.lo idx in
    let last = if len = 0 then idx else max (h.lo + len - 1) idx in
    let size = min bucket_count (max (last - first + 1) (2 * len)) in
    let lo = if idx < h.lo then last + 1 - size else first in
    let lo = max 0 (min lo (bucket_count - size)) in
    let counts = Array.make size 0 in
    if len > 0 then Array.blit h.counts 0 counts (h.lo - lo) len;
    h.lo <- lo;
    h.counts <- counts

  let observe h v =
    let v = max 0 v in
    h.h_count <- h.h_count + 1;
    (* Both terms are below 2^62, so their sum wraps at most once, into
       the sign bit: carry it out. *)
    let s = h.h_sum + v in
    h.h_carry <- h.h_carry + (s lsr 62);
    h.h_sum <- s land max_int;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let idx = bucket_index v in
    let i = idx - h.lo in
    (* [i] is in [0, length) exactly when neither [i] nor [length - 1 - i]
       is negative: one test. *)
    if i lor (Array.length h.counts - 1 - i) < 0 then grow h idx;
    let i = idx - h.lo in
    h.counts.(i) <- h.counts.(i) + 1

  let count h = h.h_count
  let sum h = if h.h_carry = 0 then h.h_sum else max_int
  let min_value h = if h.h_count = 0 then 0 else h.h_min
  let max_value h = if h.h_count = 0 then 0 else h.h_max

  (* From the exact total, clamped against the rounding of a total past
     2^53, so that min ≤ mean ≤ max. *)
  let mean h =
    if h.h_count = 0 then 0.0
    else begin
      let total = Float.ldexp (float_of_int h.h_carry) 62 +. float_of_int h.h_sum in
      let m = total /. float_of_int h.h_count in
      Float.min (float_of_int h.h_max) (Float.max (float_of_int h.h_min) m)
    end

  let percentile h p =
    if h.h_count = 0 then 0
    else begin
      let p = if Float.is_nan p then 0.0 else Float.max 0.0 (Float.min 100.0 p) in
      if p <= 0.0 then min_value h
      else if p >= 100.0 then max_value h
      else begin
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
        let rank = max 1 (min h.h_count rank) in
        (* Buckets outside the span are empty: walk the span only. *)
        let n = Array.length h.counts in
        let rec walk i cum =
          if i >= n then max_value h
          else begin
            let cum = cum + h.counts.(i) in
            if cum >= rank then min (max (bucket_upper (h.lo + i)) h.h_min) h.h_max
            else walk (i + 1) cum
          end
        in
        walk 0 0
      end
    end
end

(* Keys: the names interned so far, one table per kind. A key is its
   name's rank of interning. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 128
let histograms : (string, int) Hashtbl.t = Hashtbl.create 32

let intern ns name =
  match Hashtbl.find ns name with
  | k -> k
  | exception Not_found ->
    let k = Hashtbl.length ns in
    Hashtbl.replace ns name k;
    k

let key_of ns name = match Hashtbl.find ns name with k -> k | exception Not_found -> -1

type counter_key = int
type histogram_key = int

let counter_key name = intern counters name
let histogram_key name = intern histograms name

(* [counts.(k)] is 0 while [k] was never written and [2v + 1] once its
   value is [v]: the low bit is the written mark, set by the same store
   that adds, so a counter written by 0 reads 1 and is listed. [hists.(k)]
   is [no_histogram] until [k]'s first sample or [declare]. Both arrays
   start empty, and a write past the end at least doubles one, up to
   every key interned so far. *)
type t = {
  mutable counts : int array;
  mutable hists : histogram array;
  mutable gauges : (string * int ref) list;
}

let no_histogram = Histogram.create ()

let create () = { counts = [||]; hists = [||]; gauges = [] }

let grown a ns k fill =
  let b = Array.make (min (Hashtbl.length ns) (max (k + 1) (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let count_by t k n =
  if k >= Array.length t.counts then t.counts <- grown t.counts counters k 0;
  Array.unsafe_set t.counts k ((Array.unsafe_get t.counts k + (2 * n)) lor 1)

let count t k = count_by t k 1

let hist t k =
  if k >= Array.length t.hists then t.hists <- grown t.hists histograms k no_histogram;
  let h = Array.unsafe_get t.hists k in
  if h != no_histogram then h
  else begin
    let h = Histogram.create () in
    Array.unsafe_set t.hists k h;
    h
  end

let sample t k v = Histogram.observe (hist t k) v
let declare t k = ignore (hist t k)

let counter t name =
  let k = key_of counters name in
  if k < 0 || k >= Array.length t.counts then 0 else t.counts.(k) asr 1

let histogram t name =
  let k = key_of histograms name in
  if k < 0 || k >= Array.length t.hists || t.hists.(k) == no_histogram then None
  else Some t.hists.(k)

let set_gauge t name v =
  match List.assoc name t.gauges with
  | r -> r := v
  | exception Not_found -> t.gauges <- (name, ref v) :: t.gauges

let gauge t name = match List.assoc name t.gauges with r -> !r | exception Not_found -> 0

(* The names of the keys whose slot in [a] is written. *)
let written a ns blank =
  Hashtbl.fold
    (fun name k acc -> if k < Array.length a && a.(k) != blank then name :: acc else acc)
    ns []
  |> List.sort compare

let counter_names t = written t.counts counters 0
let gauge_names t = List.sort compare (List.map fst t.gauges)
let histogram_names t = written t.hists histograms no_histogram

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
