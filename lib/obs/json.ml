(* One JSON value type, one compact printer and one parser for every file
   the tree writes or reads (the image carries no JSON library). *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let integral = String.for_all (function '0' .. '9' | '-' -> true | _ -> false)

(* The shortest %g form that reads back as the same float, with ".0"
   added where it would read back as an [Int]. *)
let add_float b f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else
    let s = shortest 15 in
    Buffer.add_string b (if integral s then s ^ ".0" else s)

let add_seq b opening closing add items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add x)
    items;
  Buffer.add_char b closing

let rec to_buffer b = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> add_float b f
  | Str s -> add_string b s
  | Arr items -> add_seq b '[' ']' (to_buffer b) items
  | Obj fields ->
    add_seq b '{' '}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \n\t\r" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  (* the next byte after any whitespace, not consumed *)
  let peek () =
    skip ();
    if !pos < n then s.[!pos] else fail "unexpected end of input"
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let len = String.length word in
    if !pos + len > n || String.sub s !pos len <> word then fail "bad literal";
    pos := !pos + len;
    v
  in
  let hex4 () =
    let digits = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    if digits = "" || not (String.for_all (String.contains "0123456789abcdefABCDEF") digits)
    then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      incr pos;
      match s.[!pos - 1] with
      | '"' -> Buffer.contents b
      | '\\' when !pos < n ->
        incr pos;
        (match s.[!pos - 1] with
         | ('"' | '\\' | '/') as c -> Buffer.add_char b c
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let code = hex4 () in
           Buffer.add_utf_8_uchar b
             (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | '\\' -> fail "unterminated escape"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text, float_of_string_opt text with
    | Some i, _ when integral text -> Int i
    | _, Some f -> Float f
    | _ -> fail "bad number"
  in
  (* "item (, item)* close" or just "close", after the opening bracket *)
  let items close item =
    incr pos;
    let rec go acc =
      let acc = item () :: acc in
      match peek () with
      | ',' ->
        incr pos;
        go acc
      | c when c = close ->
        incr pos;
        List.rev acc
      | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
    in
    if peek () <> close then go []
    else begin
      incr pos;
      []
    end
  in
  let rec value () =
    match peek () with
    | '{' ->
      Obj
        (items '}' (fun () ->
             let k = string () in
             expect ':';
             (k, value ())))
    | '[' -> Arr (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = value () in
  skip ();
  if !pos < n then fail "trailing bytes";
  v
