(* SARIF 2.1.0 rendering of sodalint diagnostics (`sodal_check --format
   sarif`), the shape GitHub code scanning ingests: one run, the rule
   metadata taken from the {!Rules} catalog, one result per diagnostic.
   Built as one {!Soda_obs.Json} value. *)

open Soda_obs.Json

let text s = Obj [ ("text", Str s) ]
let level severity = Str (Diagnostic.severity_name severity)

let rule (r : Rules.t) =
  Obj
    [ ("id", Str r.id); ("shortDescription", text r.title); ("fullDescription", text r.detail);
      ("defaultConfiguration", Obj [ ("level", level r.severity) ]) ]

let result (d : Diagnostic.t) =
  let region = Obj [ ("startLine", Int d.pos.line); ("startColumn", Int d.pos.col) ] in
  let location =
    Obj [ ("artifactLocation", Obj [ ("uri", Str d.file) ]); ("region", region) ]
  in
  Obj
    [ ("ruleId", Str d.rule); ("level", level d.severity); ("message", text d.message);
      ("locations", Arr [ Obj [ ("physicalLocation", location) ] ]) ]

let render (diags : Diagnostic.t list) =
  let driver = Obj [ ("name", Str "sodalint"); ("rules", Arr (List.map rule Rules.all)) ] in
  to_string
    (Obj
       [ ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ( "runs",
           Arr
             [ Obj
                 [ ("tool", Obj [ ("driver", driver) ]);
                   ("results", Arr (List.map result diags)) ] ] ) ])
