(* Binary min-heap whose sifting moves only ints.

   The event queue is the single hottest data structure in the simulator:
   every scheduled callback passes through one push and one pop. Each heap
   position holds its (key, seq) pair and the index of a value slot, in
   three int arrays; the values themselves sit still in a fourth array,
   written once at [push] and once more, with the filler, at [drop_min].
   Sifting therefore moves ints only and stores no pointer into the
   major-heap value array, where every store of a young value pays a
   [caml_modify] write barrier; moving values with their keys would pay
   two per level, and that cost dominated an event (see
   docs/PERFORMANCE.md). Sifts move a hole rather than swap, so each
   level is one move.

   [slots] maps positions to value slots and is a permutation of
   [0 .. capacity - 1]: positions below [size] hold the slots of live
   entries and the tail holds the free ones, so [push] takes the slot at
   position [size] and [drop_min] returns the root's slot to the tail
   without a free list. *)

type 'a t = {
  mutable keys : int array;  (* by position *)
  mutable seqs : int array;  (* by position *)
  mutable slots : int array;  (* by position: the value slot *)
  mutable vals : 'a array;  (* by slot *)
  mutable size : int;
  filler : 'a;  (* held by every free slot, so a popped value is not pinned *)
}

let initial_capacity = 64

let create ~filler =
  { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0; filler }

let length heap = heap.size

let is_empty heap = heap.size = 0

(* Called only when full: every slot is live, so the new slots are the
   positions the growth adds. *)
let grow heap =
  let capacity = Array.length heap.slots in
  let next = if capacity = 0 then initial_capacity else capacity * 2 in
  let keys = Array.make next 0 in
  let seqs = Array.make next 0 in
  let slots = Array.init next Fun.id in
  let vals = Array.make next heap.filler in
  Array.blit heap.keys 0 keys 0 capacity;
  Array.blit heap.seqs 0 seqs 0 capacity;
  Array.blit heap.slots 0 slots 0 capacity;
  Array.blit heap.vals 0 vals 0 capacity;
  heap.keys <- keys;
  heap.seqs <- seqs;
  heap.slots <- slots;
  heap.vals <- vals

(* Move the hole at [i] up past every parent greater than (key, seq), then
   fill it. *)
let rec sift_up (keys : int array) (seqs : int array) (slots : int array) i ~(key : int)
    ~(seq : int) ~slot =
  let parent = (i - 1) / 2 in
  if i > 0
     && (let kp = keys.(parent) in
         key < kp || (key = kp && seq < seqs.(parent)))
  then begin
    keys.(i) <- keys.(parent);
    seqs.(i) <- seqs.(parent);
    slots.(i) <- slots.(parent);
    sift_up keys seqs slots parent ~key ~seq ~slot
  end
  else begin
    keys.(i) <- key;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

(* Move the hole at [i] down past every lesser child of a heap of [size]
   entries, then fill it with (key, seq, slot). *)
let rec sift_down (keys : int array) (seqs : int array) (slots : int array) size i
    ~(key : int) ~(seq : int) ~slot =
  let left = (2 * i) + 1 in
  let child =
    if left >= size then -1
    else begin
      let right = left + 1 in
      if right < size
         && (let kr = keys.(right) and kl = keys.(left) in
             kr < kl || (kr = kl && seqs.(right) < seqs.(left)))
      then right
      else left
    end
  in
  if child >= 0
     && (let kc = keys.(child) in
         kc < key || (kc = key && seqs.(child) < seq))
  then begin
    keys.(i) <- keys.(child);
    seqs.(i) <- seqs.(child);
    slots.(i) <- slots.(child);
    sift_down keys seqs slots size child ~key ~seq ~slot
  end
  else begin
    keys.(i) <- key;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

let push heap ~key ~seq value =
  if heap.size = Array.length heap.slots then grow heap;
  let i = heap.size in
  let slot = heap.slots.(i) in
  heap.vals.(slot) <- value;
  heap.size <- i + 1;
  sift_up heap.keys heap.seqs heap.slots i ~key ~seq ~slot

let min_key heap =
  if heap.size = 0 then invalid_arg "Heap.min_key: empty heap";
  heap.keys.(0)

let min_seq heap =
  if heap.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  heap.seqs.(0)

let min_value heap =
  if heap.size = 0 then invalid_arg "Heap.min_value: empty heap";
  heap.vals.(heap.slots.(0))

let drop_min heap =
  if heap.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let slots = heap.slots in
  let freed = slots.(0) in
  (* The freed slot gets the filler: the popped value left there would
     keep a callback that has run, and whatever its closure captures,
     reachable until a later push reused the slot. *)
  heap.vals.(freed) <- heap.filler;
  let last = heap.size - 1 in
  heap.size <- last;
  if last > 0 then
    sift_down heap.keys heap.seqs slots last 0 ~key:heap.keys.(last)
      ~seq:heap.seqs.(last) ~slot:slots.(last);
  slots.(last) <- freed

(* Allocating convenience wrappers over the accessors above; kept for
   callers outside the event loop (tests, tooling). *)

let pop_min heap =
  if heap.size = 0 then None
  else begin
    let key = min_key heap and seq = min_seq heap and value = min_value heap in
    drop_min heap;
    Some (key, seq, value)
  end

let peek_key heap = if heap.size = 0 then None else Some heap.keys.(0)
