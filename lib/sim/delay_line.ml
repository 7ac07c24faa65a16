(* A power-of-two circular buffer over five parallel arrays, [first] the
   head's slot and [len] the number of entries, kept in (due, id) order
   behind one timer. Arrays start empty, so a line that is never pushed
   to costs a few words. *)

type ('a, 'b) t = {
  engine : Engine.t;
  tag : string option;
  delay : int;
  mutable tm : Engine.timer option;  (* made at the first push *)
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

let create ?tag engine ~delay ~fill_a ~fill_b =
  { engine; tag; delay; tm = None; due = [||]; id = [||]; n = [||]; a = [||]; b = [||]; first = 0;
    len = 0; fill_a; fill_b }

let length l = l.len

let grow l =
  let capacity = Array.length l.due in
  let next = if capacity = 0 then 2 else 2 * capacity in
  let move src fill =
    let dst = Array.make next fill in
    for i = 0 to l.len - 1 do
      dst.(i) <- src.((l.first + i) land (capacity - 1))
    done;
    dst
  in
  l.due <- move l.due 0;
  l.id <- move l.id 0;
  l.n <- move l.n 0;
  l.a <- move l.a l.fill_a;
  l.b <- move l.b l.fill_b;
  l.first <- 0

let head l =
  if l.len = 0 then invalid_arg "Delay_line: empty";
  l.first

let head_id l = l.id.(head l)
let head_n l = l.n.(head l)
let head_a l = l.a.(head l)
let head_b l = l.b.(head l)

let disarm l = match l.tm with Some tm -> Engine.disarm l.engine tm | None -> ()

(* The position, counted from the head, where an entry due at [due]
   goes: behind every entry due no later, since those took smaller ids.
   The entries due later each move one slot towards the tail. The walk
   starts at the tail, so an entry due last costs one comparison. *)
let rec place l due k =
  if k = 0 then 0
  else
    let mask = Array.length l.due - 1 in
    let prev = (l.first + k - 1) land mask in
    if l.due.(prev) <= due then k
    else begin
      let i = (prev + 1) land mask in
      l.due.(i) <- l.due.(prev);
      l.id.(i) <- l.id.(prev);
      l.n.(i) <- l.n.(prev);
      l.a.(i) <- l.a.(prev);
      l.b.(i) <- l.b.(prev);
      place l due (k - 1)
    end

let push_after l ~delay ~fire ctx ~n a b =
  if delay < 0 then invalid_arg "Delay_line.push_after: negative delay";
  let id = Engine.reserve l.engine in
  let due = Engine.now l.engine + delay in
  if l.len = Array.length l.due then grow l;
  let k = place l due l.len in
  let i = (l.first + k) land (Array.length l.due - 1) in
  l.due.(i) <- due;
  l.id.(i) <- id;
  l.n.(i) <- n;
  l.a.(i) <- a;
  l.b.(i) <- b;
  l.len <- l.len + 1;
  let tm =
    match l.tm with
    | Some tm -> tm
    | None ->
      let tm = Engine.timer ?tag:l.tag l.engine (fun () -> fire ctx) in
      l.tm <- Some tm;
      tm
  in
  if k = 0 || not (Engine.armed tm) then Engine.arm_at l.engine tm ~time:due ~id;
  id

let push l ~fire ctx ~n a b = push_after l ~delay:l.delay ~fire ctx ~n a b

let drop l =
  let i = head l in
  l.a.(i) <- l.fill_a;
  l.b.(i) <- l.fill_b;
  l.first <- (i + 1) land (Array.length l.due - 1);
  l.len <- l.len - 1

(* A line with entries has its timer. *)
let rec settle l live =
  if l.len = 0 then disarm l
  else if live l.id.(l.first) l.a.(l.first) l.b.(l.first) then
    Engine.arm_at l.engine (Option.get l.tm) ~time:l.due.(l.first) ~id:l.id.(l.first)
  else begin
    drop l;
    settle l live
  end

let always _ _ _ = true

let next l live =
  drop l;
  settle l live

let cancel l live id = if l.len > 0 && l.id.(l.first) = id then settle l live

let reset l =
  while l.len > 0 do
    drop l
  done;
  disarm l
