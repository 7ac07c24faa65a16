(* PCG32 (Melissa O'Neill): 64-bit LCG state, 32-bit xorshift-rotate output.
   All arithmetic is on boxed-free native int64 via the Int64 module; the
   output is truncated to 32 bits and returned as a non-negative int. The
   state lives in 8 bytes rather than a mutable [int64] field, whose every
   update would box a fresh 3-word int64: a draw allocates nothing. *)

type t = { state : Bytes.t; inc : int64 }

let make state inc =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 state;
  { state = b; inc }

let multiplier = 6364136223846793005L

let next_state state inc =
  Int64.add (Int64.mul state multiplier) inc

(* splitmix64 step, used to expand the user seed into state/increment. *)
let splitmix64 x =
  let x = Int64.add x 0x9E3779B97F4A7C15L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let create ~seed =
  let s0 = splitmix64 (Int64.of_int seed) in
  let s1 = splitmix64 s0 in
  (* The increment must be odd. *)
  let inc = Int64.logor (Int64.shift_left s1 1) 1L in
  make (next_state (Int64.add s0 inc) inc) inc

let bits32 rng =
  let old = Bytes.get_int64_ne rng.state 0 in
  Bytes.set_int64_ne rng.state 0 (next_state old rng.inc);
  let xorshifted =
    Int64.to_int
      (Int64.logand
         (Int64.shift_right_logical (Int64.logxor (Int64.shift_right_logical old 18) old) 27)
         0xFFFFFFFFL)
  in
  let rot = Int64.to_int (Int64.shift_right_logical old 59) in
  let rotated = (xorshifted lsr rot) lor (xorshifted lsl (32 - rot) land 0xFFFFFFFF) in
  rotated land 0xFFFFFFFF

let split rng =
  let s0 = splitmix64 (Int64.of_int (bits32 rng)) in
  let s1 = splitmix64 (Int64.logxor s0 rng.inc) in
  let inc = Int64.logor (Int64.shift_left s1 1) 1L in
  make (next_state (Int64.add s0 inc) inc) inc

(* Rejection sampling to avoid modulo bias. A top-level function: a
   local closure over [rng], [bound] and [limit] would allocate on every
   call. *)
let rec draw rng bound limit =
  let v = bits32 rng in
  if v <= limit then v mod bound else draw rng bound limit

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw rng bound (0xFFFFFFFF - (0x100000000 mod bound))

let float rng bound = float_of_int (bits32 rng) /. 4294967296.0 *. bound

let bool rng = bits32 rng land 1 = 1

let chance rng p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float rng 1.0 < p

(* The shift is clamped so large attempt counts cannot overflow; at every
   cap in use it saturates long before the clamp binds. *)
let backoff rng ~base_us ~cap_us k =
  let d = min cap_us (base_us lsl min k 20) in
  d + int rng (max d 1)
