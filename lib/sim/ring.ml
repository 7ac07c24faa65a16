(* A power-of-two circular buffer over five parallel arrays: [first] is
   the head's slot, [len] the number of entries. Arrays start empty, so a
   ring that is never pushed to costs a few words. *)

type ('a, 'b) t = {
  mutable due : int array;
  mutable id : int array;
  mutable n : int array;
  mutable a : 'a array;
  mutable b : 'b array;
  mutable first : int;
  mutable len : int;
  fill_a : 'a;
  fill_b : 'b;
}

let create ~fill_a ~fill_b =
  { due = [||]; id = [||]; n = [||]; a = [||]; b = [||]; first = 0; len = 0; fill_a; fill_b }

let is_empty r = r.len = 0

let length r = r.len

let grow r =
  let capacity = Array.length r.due in
  let next = if capacity = 0 then 8 else 2 * capacity in
  let move src fill =
    let dst = Array.make next fill in
    for i = 0 to r.len - 1 do
      dst.(i) <- src.((r.first + i) land (capacity - 1))
    done;
    dst
  in
  r.due <- move r.due 0;
  r.id <- move r.id 0;
  r.n <- move r.n 0;
  r.a <- move r.a r.fill_a;
  r.b <- move r.b r.fill_b;
  r.first <- 0

let push r ~due ~id ~n a b =
  if r.len = Array.length r.due then grow r;
  let i = (r.first + r.len) land (Array.length r.due - 1) in
  r.due.(i) <- due;
  r.id.(i) <- id;
  r.n.(i) <- n;
  r.a.(i) <- a;
  r.b.(i) <- b;
  r.len <- r.len + 1

let head r =
  if r.len = 0 then invalid_arg "Ring: empty";
  r.first

let head_due r = r.due.(head r)
let head_id r = r.id.(head r)
let head_n r = r.n.(head r)
let head_a r = r.a.(head r)
let head_b r = r.b.(head r)

let drop r =
  let i = head r in
  r.a.(i) <- r.fill_a;
  r.b.(i) <- r.fill_b;
  r.first <- (i + 1) land (Array.length r.due - 1);
  r.len <- r.len - 1

let clear r =
  while r.len > 0 do
    drop r
  done
