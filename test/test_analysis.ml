(* Golden diagnostics for sodalint (lib/analysis): every rule id has a
   broken fixture under test/lint_fixtures/ that must produce exactly
   one diagnostic of that rule at a known file:line:col — and the
   shipped examples/sodal/ programs must all come back clean. Rule
   semantics are documented in docs/ANALYSIS.md. *)

module Sodalint = Soda_analysis.Sodalint
module Diagnostic = Soda_analysis.Diagnostic
module Ast = Soda_sodal_lang.Ast
module Json = Soda_obs.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let analyze paths =
  Sodalint.analyze
    (List.map (fun path -> { Sodalint.path; text = read_file path }) paths)

(* file:line:col severity rule — the stable part of a diagnostic; the
   message wording is free to evolve *)
let fingerprint (d : Diagnostic.t) =
  Printf.sprintf "%s:%d:%d %s %s" (Filename.basename d.file) d.pos.Ast.line
    d.pos.Ast.col
    (Diagnostic.severity_name d.severity)
    d.rule

(* Each case: the fixture files checked together, and the exact expected
   diagnostics in output order. *)
let golden_cases =
  [
    ([ "sl000_syntax.sodal" ], [ "sl000_syntax.sodal:3:1 error SL000" ]);
    ( [ "sl001_block_in_handler.sodal" ],
      [ "sl001_block_in_handler.sodal:4:3 error SL001" ] );
    ( [ "sl002_current_outside_handler.sodal" ],
      [ "sl002_current_outside_handler.sodal:4:3 error SL002" ] );
    ( [ "sl003_unknown_builtin.sodal" ],
      [ "sl003_unknown_builtin.sodal:4:3 error SL003" ] );
    ([ "sl004_arity.sodal" ], [ "sl004_arity.sodal:4:3 error SL004" ]);
    ([ "sl010_undeclared.sodal" ], [ "sl010_undeclared.sodal:4:14 error SL010" ]);
    ( [ "sl011_duplicate_decl.sodal" ],
      [ "sl011_duplicate_decl.sodal:4:1 warning SL011" ] );
    ( [ "sl012_unused_decl.sodal" ],
      [ "sl012_unused_decl.sodal:3:1 warning SL012" ] );
    ( [ "pingpong_server_broken.sodal" ],
      [ "pingpong_server_broken.sodal:18:17 error SL020" ] );
    ( [ "sl030_close_without_open.sodal" ],
      [ "sl030_close_without_open.sodal:4:3 error SL030" ] );
    ( [ "sl031_double_close.sodal" ],
      [ "sl031_double_close.sodal:6:3 warning SL031" ] );
    ( [ "sl040_enqueue_full.sodal" ],
      [ "sl040_enqueue_full.sodal:7:3 error SL040" ] );
    ( [ "sl041_dequeue_empty.sodal" ],
      [ "sl041_dequeue_empty.sodal:5:14 error SL041" ] );
    ( [ "sl050_requester.sodal"; "sl050_peer.sodal" ],
      [ "sl050_requester.sodal:6:13 warning SL050" ] );
    ( [ "sl051_readvertise.sodal" ],
      [ "sl051_readvertise.sodal:5:3 warning SL051" ] );
    ([ "sl052_unadvertise.sodal" ], [ "sl052_unadvertise.sodal:4:3 error SL052" ]);
    ( [ "sl053_shape_mismatch.sodal" ],
      [ "sl053_shape_mismatch.sodal:16:3 error SL053" ] );
    ( [ "sl054_truncated_put.sodal" ],
      [ "sl054_truncated_put.sodal:17:3 warning SL054" ] );
    ( [ "sl055_a.sodal"; "sl055_b.sodal" ],
      [
        "sl055_a.sodal:16:3 warning SL055"; "sl055_b.sodal:16:3 warning SL055";
      ] );
    ([ "sl060_no_join.sodal" ], [ "sl060_no_join.sodal:4:3 error SL060" ]);
    ([ "sl061_bad_reg.sodal" ], [ "sl061_bad_reg.sodal:5:3 error SL061" ]);
  ]

let test_golden () =
  List.iter
    (fun (fixtures, expected) ->
      let paths = List.map (Filename.concat "lint_fixtures") fixtures in
      let got = List.map fingerprint (analyze paths) in
      Alcotest.(check (list string)) (String.concat "+" fixtures) expected got)
    golden_cases

(* every rule id in the catalogue has at least one golden fixture *)
let test_rule_coverage () =
  let covered =
    List.concat_map
      (fun (_, expected) ->
        List.map
          (fun fp ->
            match String.rindex_opt fp ' ' with
            | Some i -> String.sub fp (i + 1) (String.length fp - i - 1)
            | None -> fp)
          expected)
      golden_cases
  in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " has a golden fixture")
        true (List.mem rule covered))
    [
      "SL000"; "SL001"; "SL002"; "SL003"; "SL004"; "SL010"; "SL011"; "SL012";
      "SL020"; "SL030"; "SL031"; "SL040"; "SL041"; "SL050"; "SL051"; "SL052";
      "SL053"; "SL054"; "SL055"; "SL060"; "SL061";
    ]

(* the shipped examples are lint-clean, checked as one system (the
   acceptance bar for sodal_check in CI) *)
let test_examples_clean () =
  let dir = Filename.concat ".." (Filename.concat "examples" "sodal") in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sodal")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  Alcotest.(check bool) "found the shipped examples" true (List.length files >= 4);
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map fingerprint (analyze files))

let test_exit_status () =
  let clean = [] in
  let warn =
    [
      Diagnostic.make ~file:"f" ~pos:Ast.no_pos ~severity:Diagnostic.Warning
        ~rule:"SL012" ~message:"m";
    ]
  in
  let err =
    [
      Diagnostic.make ~file:"f" ~pos:Ast.no_pos ~severity:Diagnostic.Error
        ~rule:"SL020" ~message:"m";
    ]
  in
  Alcotest.(check int) "clean" 0 (Sodalint.exit_status clean);
  Alcotest.(check int) "warnings pass" 0 (Sodalint.exit_status warn);
  Alcotest.(check int) "warnings fail under strict" 1
    (Sodalint.exit_status ~strict:true warn);
  Alcotest.(check int) "errors fail" 1 (Sodalint.exit_status err);
  Alcotest.(check int) "errors fail under strict" 1
    (Sodalint.exit_status ~strict:true err)

let test_rendering () =
  let d =
    Diagnostic.make ~file:"a.sodal"
      ~pos:{ Ast.line = 3; col = 7 }
      ~severity:Diagnostic.Error ~rule:"SL001" ~message:"no \"blocking\" here"
  in
  Alcotest.(check string)
    "human" "a.sodal:3:7: error: [SL001] no \"blocking\" here"
    (Format.asprintf "%a" Diagnostic.pp d);
  Alcotest.(check string)
    "json"
    {|{"file":"a.sodal","line":3,"col":7,"severity":"error","rule":"SL001","message":"no \"blocking\" here"}|}
    (Diagnostic.to_json d)

(* SARIF parses, lists every catalogued rule once and every diagnostic
   as one result at its position. *)
let test_sarif () =
  let diags =
    analyze
      (List.map (Filename.concat "lint_fixtures")
         [ "sl055_a.sodal"; "sl055_b.sodal"; "sl001_block_in_handler.sodal" ])
  in
  let rec get path v =
    match path, v with
    | [], v -> v
    | `K key :: rest, Json.Obj fields when List.mem_assoc key fields ->
      get rest (List.assoc key fields)
    | `K key :: _, _ -> Alcotest.failf "no member %S" key
    | `I i :: rest, Json.Arr items -> get rest (List.nth items i)
    | `I _ :: _, _ -> Alcotest.fail "expected an array"
  in
  let list = function Json.Arr items -> items | _ -> Alcotest.fail "expected an array" in
  let str = function Json.Str s -> s | _ -> Alcotest.fail "expected a string" in
  let run = get [ `K "runs"; `I 0 ] (Json.of_string (Soda_analysis.Sarif.render diags)) in
  Alcotest.(check (list string))
    "one rule per catalog entry"
    (List.map (fun r -> r.Soda_analysis.Rules.id) Soda_analysis.Rules.all)
    (List.map
       (fun r -> str (get [ `K "id" ] r))
       (list (get [ `K "tool"; `K "driver"; `K "rules" ] run)));
  Alcotest.(check int) "some diagnostics" 3 (List.length diags);
  Alcotest.(check (list string))
    "one result per diagnostic" (List.map fingerprint diags)
    (List.map
       (fun r ->
         let loc = get [ `K "locations"; `I 0; `K "physicalLocation" ] r in
         let int path = match get path loc with Json.Int n -> n | _ -> -1 in
         Printf.sprintf "%s:%d:%d %s %s"
           (Filename.basename (str (get [ `K "artifactLocation"; `K "uri" ] loc)))
           (int [ `K "region"; `K "startLine" ])
           (int [ `K "region"; `K "startColumn" ])
           (str (get [ `K "level" ] r))
           (str (get [ `K "ruleId" ] r)))
       (list (get [ `K "results" ] run)))

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "golden diagnostics per rule" `Quick test_golden;
        Alcotest.test_case "every rule id has a fixture" `Quick test_rule_coverage;
        Alcotest.test_case "shipped examples are clean" `Quick test_examples_clean;
        Alcotest.test_case "exit status" `Quick test_exit_status;
        Alcotest.test_case "human and json rendering" `Quick test_rendering;
        Alcotest.test_case "sarif rendering" `Quick test_sarif;
      ] );
  ]
