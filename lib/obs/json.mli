(** The JSON value type of every trace, metrics, lint and bench file the
    tree writes or reads (only the self-contained [sodabench/] keeps its
    own).

    The printer is compact and keeps members in the order given, so an
    exporter controls its exact bytes. It escapes the double quote,
    backslash, newline, tab and carriage return by name and every other
    control byte as [\u00XX]. A finite [Float] prints in the shortest
    form that reads back as the same float ([.0] added where it would
    read back as an [Int]), so [of_string (to_string v) = v] whenever
    [v]'s floats are finite; a non-finite one prints as [null]. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

exception Parse_error of string

(** [of_string s] parses one value, whitespace allowed between tokens. A
    number without fraction or exponent that fits an [int] is an [Int].
    [\u] escapes decode to UTF-8.
    @raise Parse_error (naming the byte offset) on malformed input,
    [null], or trailing bytes. *)
val of_string : string -> t
