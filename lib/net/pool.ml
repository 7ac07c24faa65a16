(* Reusable frame-buffer pool, one free list per power-of-two size class.

   A frame's length is [Frame.len], not its buffer's: the CRC trailer,
   the bus's transmission time and the NIC's screen all read [len], so a
   buffer may be larger than the frame it carries. Class [k] holds
   buffers of at least 2^k bytes; [acquire] takes from the least class
   that fits and mints a buffer of exactly 2^k bytes when it is empty, so
   a workload whose frames span many lengths keeps a few buffers per
   class rather than one per length.

   Ownership discipline (see docs/PERFORMANCE.md): the sender acquires,
   encodes and seals a buffer, then hands it to the bus. The bus releases
   a frame nobody receives and a broadcast frame after its sweep; a
   delivered unicast frame belongs to its receiver, which releases it
   once nothing holds a view of it. Losing a buffer (a line emptied by a
   kernel reset, a view a record dropped) is safe: the pool is a cache,
   not an accounting authority, and the GC reclaims what is never
   released. *)

type bucket = { mutable store : bytes array; mutable n : int }

type t = {
  buckets : bucket array;  (* by class; [no_bucket] until its first release *)
  mutable live : int;  (* acquired and not yet released *)
  mutable acquires : int;
  mutable reuses : int;
}

(* Shared by every class never released into: it holds nothing and is
   never written. *)
let no_bucket = { store = [||]; n = 0 }

(* 16 bytes: below it every frame is a header anyway. *)
let min_class = 4

let create () =
  { buckets = Array.make Sys.int_size no_bucket; live = 0; acquires = 0; reuses = 0 }

(* Top-level loops, not local closures: a closure over [len] would cost
   an allocation per frame. *)
let rec fits len k = if 1 lsl k >= len then k else fits len (k + 1)
let rec serves cap k = if 1 lsl (k + 1) > cap then k else serves cap (k + 1)

(* The least class at or above [min_class] whose buffers hold [len] bytes. *)
let class_for len = fits len min_class

(* The greatest class a buffer of [cap] bytes can serve. *)
let class_of cap = serves cap 0

let acquire t len =
  if len < 0 then invalid_arg "Pool.acquire: negative length";
  t.acquires <- t.acquires + 1;
  t.live <- t.live + 1;
  let k = class_for len in
  let bucket = t.buckets.(k) in
  if bucket.n > 0 then begin
    bucket.n <- bucket.n - 1;
    let buf = bucket.store.(bucket.n) in
    bucket.store.(bucket.n) <- Bytes.empty;
    t.reuses <- t.reuses + 1;
    buf
  end
  else Bytes.create (1 lsl k)

let release t buf =
  t.live <- t.live - 1;
  let k = class_of (Bytes.length buf) in
  let bucket =
    match t.buckets.(k) with
    | b when b == no_bucket ->
      let b = { store = Array.make 8 Bytes.empty; n = 0 } in
      t.buckets.(k) <- b;
      b
    | b -> b
  in
  if bucket.n = Array.length bucket.store then begin
    let next = Array.make (2 * bucket.n) Bytes.empty in
    Array.blit bucket.store 0 next 0 bucket.n;
    bucket.store <- next
  end;
  bucket.store.(bucket.n) <- buf;
  bucket.n <- bucket.n + 1

let live t = t.live
let acquires t = t.acquires
let reuses t = t.reuses
