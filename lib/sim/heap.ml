(* Structure-of-arrays binary min-heap.

   The event queue is the single hottest data structure in the simulator:
   every scheduled callback passes through one push and one pop. The
   previous implementation boxed each element in a {key; seq; value}
   record, costing four words of minor allocation per schedule; at
   hundreds of thousands of events per simulated second that garbage
   dominated the GC profile (see docs/PERFORMANCE.md). Keys, sequence
   numbers and values now live in three parallel arrays, so steady-state
   push/pop allocates nothing (array growth is amortised), and the
   [min_key]/[min_seq]/[min_value]/[drop_min] accessors let the engine
   drain the queue without materialising option/tuple results. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  filler : 'a;  (* written into every vacated slot, so a popped value is not pinned *)
}

let initial_capacity = 64

let create ~filler = { keys = [||]; seqs = [||]; vals = [||]; size = 0; filler }

let length heap = heap.size

let is_empty heap = heap.size = 0

let less heap i j =
  let ki = heap.keys.(i) and kj = heap.keys.(j) in
  ki < kj || (ki = kj && heap.seqs.(i) < heap.seqs.(j))

let grow heap =
  let capacity = Array.length heap.vals in
  if heap.size = capacity then begin
    let next = if capacity = 0 then initial_capacity else capacity * 2 in
    let keys = Array.make next 0 in
    let seqs = Array.make next 0 in
    let vals = Array.make next heap.filler in
    Array.blit heap.keys 0 keys 0 heap.size;
    Array.blit heap.seqs 0 seqs 0 heap.size;
    Array.blit heap.vals 0 vals 0 heap.size;
    heap.keys <- keys;
    heap.seqs <- seqs;
    heap.vals <- vals
  end

let swap heap i j =
  let k = heap.keys.(i) in
  heap.keys.(i) <- heap.keys.(j);
  heap.keys.(j) <- k;
  let s = heap.seqs.(i) in
  heap.seqs.(i) <- heap.seqs.(j);
  heap.seqs.(j) <- s;
  let v = heap.vals.(i) in
  heap.vals.(i) <- heap.vals.(j);
  heap.vals.(j) <- v

let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less heap i parent then begin
      swap heap i parent;
      sift_up heap parent
    end
  end

let rec sift_down heap i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < heap.size && less heap left !smallest then smallest := left;
  if right < heap.size && less heap right !smallest then smallest := right;
  if !smallest <> i then begin
    swap heap i !smallest;
    sift_down heap !smallest
  end

let push heap ~key ~seq value =
  grow heap;
  let i = heap.size in
  heap.keys.(i) <- key;
  heap.seqs.(i) <- seq;
  heap.vals.(i) <- value;
  heap.size <- heap.size + 1;
  sift_up heap i

let min_key heap =
  if heap.size = 0 then invalid_arg "Heap.min_key: empty heap";
  heap.keys.(0)

let min_seq heap =
  if heap.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  heap.seqs.(0)

let min_value heap =
  if heap.size = 0 then invalid_arg "Heap.min_value: empty heap";
  heap.vals.(0)

let drop_min heap =
  if heap.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let last = heap.size - 1 in
  heap.size <- last;
  heap.vals.(0) <- heap.vals.(last);
  (* The vacated slot gets the filler: a copy of the moved value (or, when
     the heap empties, the popped value itself) left there would keep a
     callback that has run, and whatever its closure captures, reachable
     until a later push overwrote the slot. *)
  heap.vals.(last) <- heap.filler;
  if last > 0 then begin
    heap.keys.(0) <- heap.keys.(last);
    heap.seqs.(0) <- heap.seqs.(last);
    sift_down heap 0
  end

(* Allocating convenience wrappers over the accessors above; kept for
   callers outside the event loop (tests, tooling). *)

let pop_min heap =
  if heap.size = 0 then None
  else begin
    let key = heap.keys.(0) and seq = heap.seqs.(0) and value = heap.vals.(0) in
    drop_min heap;
    Some (key, seq, value)
  end

let peek_key heap = if heap.size = 0 then None else Some heap.keys.(0)
