(* sodal_run: host SODAL programs (§4.1) on a simulated SODA network.

   Each source file becomes one node's client, machine ids assigned in
   argument order. PRINT output is prefixed with the printing machine and
   the virtual time.

     dune exec bin/sodal_run.exe -- server.sodal client.sodal
     dune exec bin/sodal_run.exe -- --seconds 10 --seed 3 a.sodal b.sodal *)

module Network = Soda_core.Network
module Interp = Soda_sodal_lang.Interp
module Parser = Soda_sodal_lang.Parser
module Lexer = Soda_sodal_lang.Lexer

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Pick an export format from the --trace argument: "-" means the human
   timeline on stdout; a .json path gets Chrome trace_event format (load it
   in Perfetto or about://tracing); anything else gets JSONL. *)
let export_trace net dest =
  let events = Soda_obs.Recorder.events (Network.recorder net) in
  match dest with
  | "-" -> Format.printf "%a@." Soda_obs.Export.pp_timeline events
  | file when Filename.check_suffix file ".json" ->
    let oc = open_out file in
    Soda_obs.Export.output_chrome oc events;
    close_out oc;
    Printf.printf "-- wrote Chrome trace (%d events) to %s\n" (List.length events) file
  | file ->
    let oc = open_out file in
    Soda_obs.Export.output_jsonl oc events;
    close_out oc;
    Printf.printf "-- wrote JSONL trace (%d events) to %s\n" (List.length events) file

let print_metrics net =
  let engine_metrics = Soda_obs.Metrics.create () in
  Soda_sim.Engine.export_metrics (Network.engine net) engine_metrics ~prefix:"engine";
  Format.printf "@.== engine ==@.%a" Soda_obs.Metrics.pp engine_metrics;
  Format.printf "@.== bus ==@.%a" Soda_obs.Metrics.pp (Soda_net.Bus.stats (Network.bus net));
  List.iter
    (fun (mid, kernel) ->
      Format.printf "@.== node %d ==@.%a" mid Soda_obs.Metrics.pp
        (Soda_core.Kernel.stats kernel))
    (Network.nodes net);
  Format.printf "@."

(* --metrics-json: every registry the run touched — engine profiling
   gauges, bus stats, per-node kernel stats and the recorder's own
   metrics (store latency histograms etc.) — as one JSON object. *)
let export_metrics_json net file =
  let engine_metrics = Soda_obs.Metrics.create () in
  Soda_sim.Engine.export_metrics (Network.engine net) engine_metrics ~prefix:"engine";
  let sections =
    (("engine", engine_metrics)
     :: ("bus", Soda_net.Bus.stats (Network.bus net))
     :: ("recorder", Soda_obs.Recorder.metrics (Network.recorder net))
     :: List.map
          (fun (mid, kernel) ->
            (Printf.sprintf "node.%d" mid, Soda_core.Kernel.stats kernel))
          (Network.nodes net))
  in
  let oc = open_out file in
  output_string oc (Soda_obs.Export.metrics_sections_json sections);
  close_out oc;
  Printf.printf "-- wrote metrics JSON (%d registries) to %s\n" (List.length sections)
    file

(* --store N: run the deterministic store workload harness instead of
   SODAL sources — the same harness the linearizability suite uses, so a
   (seed, fault plan) pair printed by a failing qcheck case replays its
   exact schedule here (see docs/STORE.md). *)
let run_store ~seed ~seconds ~trace ~metrics ~metrics_json ~fault_plan ~n ~clients ~ops
    ~keys ~think_us ~nameserver =
  let module Harness = Soda_store.Harness in
  let plan =
    match fault_plan with
    | None -> Ok None
    | Some path ->
      (match Soda_fault.Fault_plan.load path with
       | Ok plan -> Ok (Some plan)
       | Error message -> Error (Printf.sprintf "%s: %s" path message))
  in
  match plan with
  | Error message -> `Error (false, message)
  | Ok plan ->
    let r =
      Harness.run ~n ~clients ~ops ~keys ~seed ~think_us ?plan
        ~use_nameserver:nameserver
        ~trace:(trace <> None)
        ~horizon_us:(int_of_float (seconds *. 1e6))
        ()
    in
    Format.printf "%a" Harness.pp_history r.Harness.history;
    let ok, no_quorum =
      List.fold_left
        (fun (ok, nq) (op : Harness.op) ->
          match op.outcome with `No_quorum -> (ok, nq + 1) | _ -> (ok + 1, nq))
        (0, 0) r.Harness.history
    in
    Printf.printf
      "-- store: n=%d, %d/%d clients finished, %d ops (%d ok, %d no-quorum)\n" n
      r.Harness.clients_done r.Harness.clients_total
      (List.length r.Harness.history)
      ok no_quorum;
    (match trace with Some dest -> export_trace r.Harness.net dest | None -> ());
    if metrics then print_metrics r.Harness.net;
    (match metrics_json with
     | Some file -> export_metrics_json r.Harness.net file
     | None -> ());
    `Ok ()

(* --scd N: run the SCD-broadcast workload harness (snapshot object +
   counter on an N-member cluster) instead of SODAL sources. Like
   --store, a (seed, fault plan) pair printed by a failing qcheck case
   replays its exact schedule here (see docs/BROADCAST.md). *)
let run_scd ~seed ~seconds ~trace ~metrics ~metrics_json ~fault_plan ~n ~clients ~ops
    ~regs ~think_us =
  let module Harness = Soda_scd.Harness in
  let plan =
    match fault_plan with
    | None -> Ok None
    | Some path ->
      (match Soda_fault.Fault_plan.load path with
       | Ok plan -> Ok (Some plan)
       | Error message -> Error (Printf.sprintf "%s: %s" path message))
  in
  match plan with
  | Error message -> `Error (false, message)
  | Ok plan ->
    let r =
      Harness.run ~n ~clients ~ops ~regs ~seed ~think_us ?plan
        ~trace:(trace <> None)
        ~horizon_us:(int_of_float (seconds *. 1e6))
        ()
    in
    Format.printf "%a" Harness.pp_history r.Harness.history;
    let ok, failed =
      List.fold_left
        (fun (ok, failed) (op : Harness.op) ->
          match op.outcome with
          | Harness.Failed -> (ok, failed + 1)
          | _ -> (ok + 1, failed))
        (0, 0) r.Harness.history
    in
    Printf.printf
      "-- scd: n=%d, %d/%d clients finished, %d ops (%d ok, %d unreachable)\n" n
      r.Harness.clients_done r.Harness.clients_total
      (List.length r.Harness.history)
      ok failed;
    (* a FORWARD still queued at the end *)
    Array.iteri
      (fun i m ->
        let backlog = Soda_scd.Scd.retry_depth m in
        if backlog > 0 then Printf.printf "-- scd: member %d backlog %d FORWARD(s)\n" i backlog)
      r.Harness.members;
    (* a stamp a member never took: a gap at the end of a forwarder's
       stream leaves no backlog behind it *)
    Array.iteri
      (fun i m ->
        Array.iteri
          (fun j peer ->
            let lacks = Soda_scd.Scd.clock peer - Soda_scd.Scd.next_stamp m j in
            if j <> i && lacks > 0 then
              Printf.printf "-- scd: member %d lacks %d stamp(s) of member %d\n" i lacks j)
          r.Harness.members)
      r.Harness.members;
    let report name = function
      | Ok () ->
        Printf.printf "-- scd: %s OK\n" name;
        true
      | Error message ->
        Printf.printf "-- scd: %s VIOLATED: %s\n" name message;
        false
    in
    let delivery_ok = report "delivery (set-constrained)" (Harness.check_delivery r) in
    let objects_ok = report "objects (snapshot/counter)" (Harness.check_objects r) in
    (* convergence is a liveness property; a plan may legitimately leave
       members crashed or partitioned, so only check the healthy case *)
    (match plan with
     | None -> ignore (report "convergence" (Harness.check_convergence r))
     | Some _ -> ());
    (match trace with Some dest -> export_trace r.Harness.net dest | None -> ());
    if metrics then print_metrics r.Harness.net;
    (match metrics_json with
     | Some file -> export_metrics_json r.Harness.net file
     | None -> ());
    if delivery_ok && objects_ok then `Ok ()
    else `Error (false, "scd safety checkers found violations")

(* --check: run the sodalint static analyzer and the whole-system model
   checker (same rules as bin/sodal_check.exe --model-check) and stop
   instead of executing. *)
let run_check files =
  let module An = Soda_analysis in
  let sources =
    List.map (fun path -> { An.Sodalint.path; text = read_file path }) files
  in
  let diags = An.Sodalint.analyze sources in
  let programs, parse_diags = An.Sodalint.parse_programs sources in
  let diags, mc =
    if parse_diags <> [] then (diags, None)
    else
      let r = An.Modelcheck.run (An.Automata.extract programs) in
      ( List.sort_uniq An.Diagnostic.compare
          (diags @ An.Modelcheck.diagnostics_of r),
        Some r )
  in
  List.iter (fun d -> Format.printf "%a@." An.Diagnostic.pp d) diags;
  if An.Diagnostic.has_errors diags then
    `Error (false, "static analysis found errors; not running")
  else begin
    (match mc with
     | Some r ->
       Printf.printf "-- model check: %d configuration(s) explored%s\n"
         r.An.Modelcheck.configs_explored
         (if r.An.Modelcheck.exhausted then "" else " (bounded)")
     | None -> ());
    Printf.printf "-- %d file(s) pass sodalint\n" (List.length files);
    `Ok ()
  end

let run seed seconds trace metrics metrics_json fault_plan store store_clients store_ops
    store_keys store_think_us store_nameserver scd scd_clients scd_ops scd_regs
    scd_think_us scd_members check files =
  if store > 0 then
    run_store ~seed ~seconds ~trace ~metrics ~metrics_json ~fault_plan ~n:store
      ~clients:store_clients ~ops:store_ops ~keys:store_keys ~think_us:store_think_us
      ~nameserver:store_nameserver
  else if scd > 0 then
    run_scd ~seed ~seconds ~trace ~metrics ~metrics_json ~fault_plan ~n:scd
      ~clients:scd_clients ~ops:scd_ops ~regs:scd_regs ~think_us:scd_think_us
  else if files = [] then `Error (true, "at least one SODAL source file is required")
  else if check then run_check files
  else begin
    (* Tracing implies causal, as in the store harness: an exported trace
       should carry the cross-node tree ids soda_trace reconstructs. *)
    let cost =
      (* SCD members juggle one outstanding echo per peer channel plus the
         client-facing accept, so give them the harness's request budget. *)
      if scd_members > 0 then
        { Soda_base.Cost_model.default with maxrequests = scd_members + 2 }
      else Soda_base.Cost_model.default
    in
    let net = Network.create ~seed ~cost ~trace:(trace <> None) ~causal:(trace <> None) () in
    let ok = ref true in
    let attachers = Hashtbl.create 8 in
    (* --scd-members K hosts the K members of SCD cluster "sodal" on
       machines 0..K-1, so the programs (on machines K..) can
       SCD_JOIN(K, regs) them — see examples/sodal/scd_demo.sodal. *)
    let module Scd = Soda_scd.Scd in
    for index = 0 to scd_members - 1 do
      let kernel = Network.add_node net ~mid:index in
      let member =
        Scd.member ~cluster:"sodal" ~index ~mids:(List.init scd_members Fun.id)
          ~regs:scd_regs
      in
      let attach kernel =
        ignore (Soda_runtime.Sodal.attach kernel (Scd.member_spec member))
      in
      Hashtbl.replace attachers index attach;
      attach kernel
    done;
    List.iteri
      (fun i path ->
        let mid = scd_members + i in
        let kernel = Network.add_node net ~mid in
        let source = read_file path in
        match Parser.parse source with
        | program ->
          let print line =
            Printf.printf "[mid %d @%8.1f ms] %s\n%!" mid
              (float_of_int (Network.now net) /. 1000.0)
              line
          in
          let attach kernel =
            ignore
              (Soda_runtime.Sodal.attach kernel (Interp.spec_of_program ~print program))
          in
          Hashtbl.replace attachers mid attach;
          attach kernel
        | exception Parser.Parse_error (message, p) ->
          Printf.eprintf "%s:%d:%d: parse error: %s\n" path p.Soda_sodal_lang.Ast.line
            p.Soda_sodal_lang.Ast.col message;
          ok := false
        | exception Lexer.Lex_error (message, p) ->
          Printf.eprintf "%s:%d:%d: lexical error: %s\n" path p.Soda_sodal_lang.Ast.line
            p.Soda_sodal_lang.Ast.col message;
          ok := false)
      files;
    let plan_error = ref None in
    (match fault_plan with
     | None -> ()
     | Some path ->
       (match Soda_fault.Fault_plan.load path with
        | Ok plan ->
          (* A rebooted node gets its SODAL program re-attached: a fresh
             interpreter on a fresh kernel incarnation. *)
          let on_reboot ~mid kernel =
            match Hashtbl.find_opt attachers mid with
            | Some attach -> attach kernel
            | None -> ()
          in
          Soda_fault.Injector.install ~on_reboot net plan
        | Error message ->
          plan_error := Some (Printf.sprintf "%s: %s" path message)));
    if not !ok then `Error (false, "aborted: source errors")
    else match !plan_error with
    | Some message -> `Error (false, message)
    | None -> begin
      let final = Network.run ~until:(int_of_float (seconds *. 1e6)) net in
      Printf.printf "-- network quiescent/stopped at %.1f ms of virtual time\n"
        (float_of_int final /. 1000.0);
      (match trace with Some dest -> export_trace net dest | None -> ());
      if metrics then print_metrics net;
      (match metrics_json with Some file -> export_metrics_json net file | None -> ());
      `Ok ()
    end
  end

open Cmdliner

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let seconds =
  Arg.(
    value
    & opt float 60.0
    & info [ "seconds" ] ~docv:"S" ~doc:"Virtual-time horizon in seconds.")

let trace =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the protocol event trace. Without $(docv) (or with '-') the \
           human-readable timeline is printed on stdout; a $(docv) ending in .json \
           receives Chrome trace_event JSON (openable in Perfetto); any other \
           $(docv) receives one JSON object per line (JSONL).")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the engine, bus and per-node metrics registries at the end.")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write every metrics registry of the run (engine profiling gauges, bus, \
           recorder, one per node) as a single JSON object to $(docv).")

let fault_plan =
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Execute the fault plan in $(docv) during the run: scripted partitions, \
           node crash/reboot, frame duplication, delivery jitter and loss bursts, \
           all at fixed virtual times (see docs/TESTING.md for the format).")

let store =
  Arg.(
    value & opt int 0
    & info [ "store" ] ~docv:"N"
        ~doc:
          "Run the quorum-replicated store workload harness with $(docv) replicas \
           instead of SODAL sources (see docs/STORE.md). Combine with --seed and \
           --fault-plan to replay a failing linearizability case bit-for-bit.")

let store_clients =
  Arg.(
    value & opt int 2
    & info [ "store-clients" ] ~docv:"N" ~doc:"Concurrent store clients (with --store).")

let store_ops =
  Arg.(
    value & opt int 8
    & info [ "store-ops" ] ~docv:"N" ~doc:"Operations per store client (with --store).")

let store_keys =
  Arg.(
    value & opt int 2
    & info [ "store-keys" ] ~docv:"N" ~doc:"Distinct keys in the workload (with --store).")

let store_think_us =
  Arg.(
    value & opt int 250_000
    & info [ "store-think-us" ] ~docv:"US"
        ~doc:"Upper bound on per-op client think time in µs (with --store).")

let store_nameserver =
  Arg.(
    value & flag
    & info [ "store-nameserver" ]
        ~doc:
          "Resolve store replicas through the switchboard (register/rebind path) \
           instead of their stable patterns (with --store).")

let scd =
  Arg.(
    value & opt int 0
    & info [ "scd" ] ~docv:"N"
        ~doc:
          "Run the SCD-broadcast workload harness (multi-writer snapshot object \
           and counter) with $(docv) members instead of SODAL sources (see \
           docs/BROADCAST.md). Combine with --seed and --fault-plan to replay a \
           failing qcheck case bit-for-bit; the safety checkers run at the end \
           and a violation exits non-zero.")

let scd_clients =
  Arg.(
    value & opt int 2
    & info [ "scd-clients" ] ~docv:"N" ~doc:"Concurrent SCD clients (with --scd).")

let scd_ops =
  Arg.(
    value & opt int 6
    & info [ "scd-ops" ] ~docv:"N" ~doc:"Operations per SCD client (with --scd).")

let scd_regs =
  Arg.(
    value & opt int 2
    & info [ "scd-regs" ] ~docv:"N"
        ~doc:"Snapshot-object registers (with --scd).")

let scd_think_us =
  Arg.(
    value & opt int 100_000
    & info [ "scd-think-us" ] ~docv:"US"
        ~doc:"Upper bound on per-op client think time in µs (with --scd).")

let scd_members =
  Arg.(
    value & opt int 0
    & info [ "scd-members" ] ~docv:"K"
        ~doc:
          "Host the $(docv) members of SCD cluster \"sodal\" on machines 0..K-1 \
           alongside the SODAL programs (which then occupy machines K..); the \
           programs reach them with SCD_JOIN(K, regs). Register count comes from \
           $(b,--scd-regs).")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Statically check the programs (sodalint plus the whole-system model \
           checker, see docs/ANALYSIS.md) instead of running them; non-zero \
           exit if any rule reports an error.")

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE.sodal" ~doc:"SODAL source files.")

let cmd =
  let doc = "run SODAL programs on a simulated SODA network" in
  Cmd.v
    (Cmd.info "sodal_run" ~doc)
    Term.(
      ret
        (const run $ seed $ seconds $ trace $ metrics $ metrics_json $ fault_plan
        $ store $ store_clients $ store_ops $ store_keys $ store_think_us
        $ store_nameserver $ scd $ scd_clients $ scd_ops $ scd_regs $ scd_think_us
        $ scd_members
        $ check $ files))

let () = exit (Cmd.eval cmd)
