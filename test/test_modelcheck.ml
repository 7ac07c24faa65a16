(* The whole-system model checker (lib/analysis/modelcheck.ml): golden
   diagnostics and minimal counterexample traces for the seeded
   SL070–SL073 fixtures, the interpreter/analyzer lockstep guard, the
   rule-catalog completeness check, the shipped examples' clean bill of
   health, and the lint-vs-runtime differential fuzzer: hundreds of
   random template-generated systems are both model checked and executed
   under the interpreter, and a runtime protocol failure on a
   statically-clean system fails the suite. *)

open Helpers
module Sodalint = Soda_analysis.Sodalint
module Diagnostic = Soda_analysis.Diagnostic
module Automata = Soda_analysis.Automata
module Modelcheck = Soda_analysis.Modelcheck
module Rules = Soda_analysis.Rules
module Ast = Soda_sodal_lang.Ast
module Builtins = Soda_sodal_lang.Builtins
module Interp = Soda_sodal_lang.Interp

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture f = Filename.concat (Filename.concat "lint_fixtures" "modelcheck") f

(* the full sodal_check --model-check pipeline over in-memory sources *)
let check_sources sources =
  let diags = Sodalint.analyze sources in
  let programs, parse_diags = Sodalint.parse_programs sources in
  if parse_diags <> [] then (diags, None)
  else
    let r = Modelcheck.run (Automata.extract programs) in
    ( List.sort_uniq Diagnostic.compare (diags @ Modelcheck.diagnostics_of r),
      Some r )

let check_files paths =
  check_sources
    (List.map (fun path -> { Sodalint.path; text = read_file path }) paths)

let fingerprint (d : Diagnostic.t) =
  Printf.sprintf "%s:%d:%d %s %s" (Filename.basename d.file) d.pos.Ast.line
    d.pos.Ast.col
    (Diagnostic.severity_name d.severity)
    d.rule

(* ---- golden diagnostics for the seeded fixtures -------------------------- *)

let golden_cases =
  [
    ( [ "sl070_deadlock_a.sodal"; "sl070_deadlock_b.sodal" ],
      [
        "sl070_deadlock_a.sodal:20:3 warning SL055";
        "sl070_deadlock_a.sodal:20:3 error SL070";
        "sl070_deadlock_a.sodal:20:3 error SL071";
        "sl070_deadlock_b.sodal:17:3 warning SL055";
        "sl070_deadlock_b.sodal:17:3 error SL070";
        "sl070_deadlock_b.sodal:17:3 error SL071";
      ] );
    ( [ "sl071_orphan_server.sodal"; "sl071_orphan_client.sodal" ],
      [ "sl071_orphan_client.sodal:8:3 error SL071" ] );
    ( [ "sl072_livelock_server.sodal"; "sl072_livelock_client.sodal" ],
      [ "sl072_livelock_client.sodal:10:11 warning SL072" ] );
    ( [ "sl073_withdraw_server.sodal"; "sl073_withdraw_client.sodal" ],
      [ "sl073_withdraw_client.sodal:8:9 warning SL073" ] );
  ]

let test_golden () =
  List.iter
    (fun (fixtures, expected) ->
      let diags, mc = check_files (List.map fixture fixtures) in
      Alcotest.(check (list string))
        (String.concat "+" fixtures)
        expected
        (List.map fingerprint diags);
      match mc with
      | Some r -> Alcotest.(check bool) "exhaustive" true r.Modelcheck.exhausted
      | None -> Alcotest.fail "fixtures did not parse")
    golden_cases

(* ---- golden counterexample traces ----------------------------------------- *)

let find_violation rule (r : Modelcheck.result) =
  match
    List.find_opt
      (fun (v : Modelcheck.violation) -> v.Modelcheck.v_rule = rule)
      r.Modelcheck.violations
  with
  | Some v -> v
  | None -> Alcotest.fail (rule ^ " violation not reported")

let mc_of_files paths =
  match check_files paths with
  | _, Some r -> r
  | _, None -> Alcotest.fail "fixtures did not parse"

let test_trace_deadlock () =
  let r =
    mc_of_files
      [ fixture "sl070_deadlock_a.sodal"; fixture "sl070_deadlock_b.sodal" ]
  in
  let v = find_violation "SL070" r in
  (* breadth-first search order makes this the minimal interleaving *)
  Alcotest.(check (list string))
    "minimal deadlock trace"
    [
      "dl_a: ADVERTISE %0751";
      "dl_b: ADVERTISE %0752";
      "dl_a: DISCOVER %0752 finds an advertiser";
      "dl_a: B_SIGNAL %0752 (blocks)";
      "dl_b: DISCOVER %0751 finds an advertiser";
      "dl_b: B_SIGNAL %0751 (blocks)";
      "deliver B_SIGNAL %0752 from dl_a to dl_b: deferred";
      "deliver B_SIGNAL %0751 from dl_b to dl_a: deferred";
    ]
    v.Modelcheck.v_trace

let test_trace_livelock () =
  let r =
    mc_of_files
      [ fixture "sl072_livelock_server.sodal"; fixture "sl072_livelock_client.sodal" ]
  in
  let v = find_violation "SL072" r in
  Alcotest.(check bool)
    "trace shows the repeating cycle" true
    (List.mem "-- the cycle repeats --" v.Modelcheck.v_trace);
  Alcotest.(check bool)
    "cycle contains the rejection" true
    (List.mem "deliver B_SIGNAL %0771 from busy_client to busy_server: rejected"
       v.Modelcheck.v_trace)

let test_trace_withdrawal () =
  let r =
    mc_of_files
      [ fixture "sl073_withdraw_server.sodal"; fixture "sl073_withdraw_client.sodal" ]
  in
  let v = find_violation "SL073" r in
  Alcotest.(check string)
    "race resolves UNADVERTISED"
    "B_SIGNAL %0731 from flaky_client completes UNADVERTISED"
    (List.nth v.Modelcheck.v_trace (List.length v.Modelcheck.v_trace - 1))

(* ---- interpreter/analyzer lockstep guard --------------------------------- *)

(* The analyzer and model checker read builtin semantics from
   Builtins.all; the interpreter dispatches from its own table. This
   pins them to the same name set so a builtin added to one side without
   the other fails the suite, not a user. *)
let test_lockstep () =
  let table =
    List.sort String.compare
      (List.map (fun (b : Builtins.t) -> b.Builtins.name) Builtins.all)
  in
  let interp = List.sort String.compare (Interp.implemented_builtins ()) in
  Alcotest.(check (list string))
    "interpreter dispatch = shared builtin table" table interp

(* ---- rule catalog completeness -------------------------------------------- *)

(* every rule id any analysis can emit, by construction *)
let emittable_rules =
  [
    "SL000"; "SL001"; "SL002"; "SL003"; "SL004"; "SL010"; "SL011"; "SL012";
    "SL020"; "SL030"; "SL031"; "SL040"; "SL041"; "SL050"; "SL051"; "SL052";
    "SL053"; "SL054"; "SL055"; "SL060"; "SL061"; "SL070"; "SL071"; "SL072";
    "SL073";
  ]

let test_catalog () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " catalogued") true (Rules.find id <> None);
      match Rules.explain id with
      | Some text ->
        Alcotest.(check bool) (id ^ " explained") true (String.length text > 0)
      | None -> Alcotest.fail (id ^ " has no --explain text"))
    emittable_rules;
  (* and nothing in the catalog that no analysis emits *)
  List.iter
    (fun (rule : Rules.t) ->
      Alcotest.(check bool)
        (rule.Rules.id ^ " emittable")
        true
        (List.mem rule.Rules.id emittable_rules))
    Rules.all;
  (* the generated markdown covers the whole catalog *)
  let md = Rules.to_markdown () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " in RULES.md") true (contains md id))
    emittable_rules

(* ---- the shipped examples model-check clean -------------------------------- *)

let test_examples_clean () =
  let dir = Filename.concat ".." (Filename.concat "examples" "sodal") in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sodal")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  Alcotest.(check bool) "found the shipped examples" true (List.length files >= 4);
  let diags, mc = check_files files in
  Alcotest.(check (list string)) "no diagnostics" [] (List.map fingerprint diags);
  match mc with
  | Some r ->
    Alcotest.(check bool) "exhaustive" true r.Modelcheck.exhausted;
    Alcotest.(check bool) "explored something" true (r.Modelcheck.configs_explored > 0)
  | None -> Alcotest.fail "examples did not parse"

(* ---- lint-vs-runtime differential fuzzer ----------------------------------- *)

(* Random well-formed systems from templates: one server whose handler
   arm inline-accepts, always rejects, defers to a §4.2.1 port, or
   swallows the request, possibly advertising the wrong pattern; plus
   one or two clients issuing a burst of blocking or fire-and-forget
   signals. The differential property: if lint and the model checker
   both come back clean, the system must also run clean under the real
   interpreter — every client reaches its final PRINT("DONE") and no
   Runtime_error fires. A failure here means the static side blessed a
   system the runtime rejects (or hangs), i.e. the two semantics have
   drifted. *)

type server_kind = Accept_inline | Reject_all | Port_defer | Ignore_arm

let server_source kind ~mismatch =
  let advertised = if mismatch then "%0702" else "%0701" in
  let arm =
    match kind with
    | Accept_inline -> "      ACCEPT_CURRENT_SIGNAL(0);\n"
    | Reject_all -> "      REJECT();\n"
    | Port_defer ->
      "      ENQUEUE(portq, ASKER);\n      if ISFULL(portq) then\n\
      \        CLOSE();\n      fi;\n"
    | Ignore_arm -> "      PRINT(\"swallowed\");\n"
  in
  let decls, task =
    match kind with
    | Port_defer ->
      ( "var portq : queue[3];\n",
        "task begin\n  loop\n    if not ISEMPTY(portq) then\n      OPEN();\n\
        \      ACCEPT_SIGNAL(DEQUEUE(portq), 0);\n    else\n      IDLE();\n\
        \    fi;\n  forever;\nend;\n" )
    | _ -> ("", "task begin\n  loop\n    IDLE();\n  forever;\nend;\n")
  in
  Printf.sprintf
    "program server;\nconst SVC = %s;\n%sinitialization begin\n\
    \  ADVERTISE(SVC);\nend;\nhandler begin\n  case entry of\n    SVC : begin\n\
     %s    end;\n  esac;\nend;\n%s.\n"
    advertised decls arm task

let client_source i ~nreqs ~blocking =
  let req =
    if blocking then "  st := B_SIGNAL(server, SVC, 0);\n"
    else "  SIGNAL(server, SVC, 0);\n"
  in
  let reqs = String.concat "" (List.init nreqs (fun _ -> req)) in
  let st_decl = if blocking then "var st : string;\n" else "" in
  let st_print = if blocking then "  PRINT(st);\n" else "" in
  Printf.sprintf
    "program client%d;\nconst SVC = %%0701;\nvar server : integer;\n\
     %stask begin\n  server := DISCOVER(SVC);\n%s%s  PRINT(\"DONE\");\nend;\n.\n"
    i st_decl reqs st_print

let gen_system =
  QCheck.Gen.(
    let* kind = oneofl [ Accept_inline; Reject_all; Port_defer; Ignore_arm ] in
    let* mismatch = bool in
    let* nclients = int_range 1 2 in
    let* nreqs = int_range 1 3 in
    let* blocking = bool in
    return (kind, mismatch, nclients, nreqs, blocking))

let arb_system =
  QCheck.make gen_system ~print:(fun (kind, mismatch, nclients, nreqs, blocking) ->
      Printf.sprintf "kind=%s mismatch=%b clients=%d reqs=%d blocking=%b"
        (match kind with
         | Accept_inline -> "accept"
         | Reject_all -> "reject"
         | Port_defer -> "port"
         | Ignore_arm -> "ignore")
        mismatch nclients nreqs blocking)

let run_differential (kind, mismatch, nclients, nreqs, blocking) =
  let server = server_source kind ~mismatch in
  let clients = List.init nclients (fun i -> client_source i ~nreqs ~blocking) in
  let sources =
    { Sodalint.path = "server.sodal"; text = server }
    :: List.mapi
         (fun i text -> { Sodalint.path = Printf.sprintf "client%d.sodal" i; text })
         clients
  in
  let diags, mc = check_sources sources in
  let clean =
    diags = []
    && match mc with Some r -> r.Modelcheck.violations = [] | None -> false
  in
  (* run the very same sources under the interpreter *)
  let net, kernels = make_net (nclients + 1) in
  let dones = ref 0 in
  let runtime_error = ref None in
  (try
     ignore (Interp.attach (List.nth kernels 0) server);
     List.iteri
       (fun i text ->
         ignore
           (Interp.attach
              ~print:(fun s -> if s = "DONE" then incr dones)
              (List.nth kernels (i + 1))
              text))
       clients;
     run ~horizon:120.0 net
   with Interp.Runtime_error e -> runtime_error := Some e);
  if clean then begin
    (match !runtime_error with
     | Some e ->
       QCheck.Test.fail_reportf
         "statically clean system raised Runtime_error %S at runtime" e
     | None -> ());
    if !dones <> nclients then
      QCheck.Test.fail_reportf
        "statically clean system: %d of %d clients reached DONE" !dones nclients
  end;
  true

let prop_differential =
  QCheck.Test.make
    ~name:"differential: lint+model-check clean implies runs clean" ~count:220
    arb_system run_differential

(* anchors against vacuity: the template space must contain systems the
   static side calls clean (so the implication is exercised) and systems
   it flags (so "clean" is not trivially true) *)
let static_clean (kind, mismatch, nclients, nreqs, blocking) =
  let server = server_source kind ~mismatch in
  let clients = List.init nclients (fun i -> client_source i ~nreqs ~blocking) in
  let sources =
    { Sodalint.path = "server.sodal"; text = server }
    :: List.mapi
         (fun i text -> { Sodalint.path = Printf.sprintf "client%d.sodal" i; text })
         clients
  in
  let diags, mc = check_sources sources in
  diags = []
  && match mc with Some r -> r.Modelcheck.violations = [] | None -> false

let test_differential_anchors () =
  Alcotest.(check bool)
    "inline-accept system is statically clean" true
    (static_clean (Accept_inline, false, 2, 3, true));
  Alcotest.(check bool)
    "port-defer system is statically clean" true
    (static_clean (Port_defer, false, 1, 2, false));
  Alcotest.(check bool)
    "request-swallowing system is flagged" false
    (static_clean (Ignore_arm, false, 1, 1, true));
  Alcotest.(check bool)
    "mismatched advertisement is flagged" false
    (static_clean (Accept_inline, true, 1, 1, true))

(* ---- registration ----------------------------------------------------------- *)

let suites =
  [
    ( "modelcheck",
      [
        Alcotest.test_case "golden fixture diagnostics" `Quick test_golden;
        Alcotest.test_case "minimal deadlock trace" `Quick test_trace_deadlock;
        Alcotest.test_case "livelock trace shows the cycle" `Quick
          test_trace_livelock;
        Alcotest.test_case "withdrawal race trace" `Quick test_trace_withdrawal;
        Alcotest.test_case "interpreter/analyzer lockstep" `Quick test_lockstep;
        Alcotest.test_case "rule catalog complete both ways" `Quick test_catalog;
        Alcotest.test_case "shipped examples model-check clean" `Quick
          test_examples_clean;
        Alcotest.test_case "differential templates span clean and flagged"
          `Quick test_differential_anchors;
        Helpers.qcheck prop_differential;
      ] );
  ]
