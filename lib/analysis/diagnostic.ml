(* Diagnostics for sodalint (lib/analysis): every finding carries a
   file, a 1-based line/column, a stable rule id (documented in
   docs/ANALYSIS.md) and a severity. Only [Error]s affect the checker's
   exit status; [Warning]s are advisory. *)

module Ast = Soda_sodal_lang.Ast

type severity = Error | Warning

type t = {
  file : string;
  pos : Ast.pos;
  severity : severity;
  rule : string;  (** stable id, e.g. "SL001" *)
  message : string;
}

let make ~file ~pos ~severity ~rule ~message = { file; pos; severity; rule; message }

let severity_name = function Error -> "error" | Warning -> "warning"

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.pos.Ast.line b.pos.Ast.line in
    if c <> 0 then c
    else
      let c = Int.compare a.pos.Ast.col b.pos.Ast.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* file:line:col: severity: [rule] message — the shape editors and CI
   log-scrapers already understand. *)
let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: %s: [%s] %s" d.file d.pos.Ast.line d.pos.Ast.col
    (severity_name d.severity) d.rule d.message

let to_json d =
  Soda_obs.Json.(
    to_string
      (Obj
         [ ("file", Str d.file); ("line", Int d.pos.Ast.line); ("col", Int d.pos.Ast.col);
           ("severity", Str (severity_name d.severity)); ("rule", Str d.rule);
           ("message", Str d.message) ]))
