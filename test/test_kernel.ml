(* Kernel-level semantics: pattern tables, request validation, DISCOVER,
   booting / killing via reserved patterns. *)

open Helpers

let patt = Pattern.well_known 0o42

(* ---- pattern machinery ---------------------------------------------------- *)

let test_pattern_classes () =
  Alcotest.(check bool) "well-known bit" true (Pattern.is_well_known (Pattern.well_known 5));
  Alcotest.(check bool) "not reserved" false (Pattern.is_reserved (Pattern.well_known 5));
  Alcotest.(check bool) "kill reserved" true (Pattern.is_reserved Pattern.kill_pattern);
  Alcotest.(check bool) "boot reserved" true (Pattern.is_reserved (Pattern.boot_pattern 0));
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Pattern.of_int: 281474976710656 does not fit in 48 bits") (fun () ->
      ignore (Pattern.of_int (1 lsl 48)))

let test_mint_uniqueness_and_floor () =
  let m = Pattern.Mint.create ~serial:7 ~boot_clock:1000 in
  Alcotest.(check int) "floor" 1000 (Pattern.Mint.boot_floor m);
  let a = Pattern.Mint.fresh_tid m in
  let b = Pattern.Mint.fresh_tid m in
  Alcotest.(check bool) "tids distinct" true (a <> b);
  Alcotest.(check int) "serial embedded" 7 (a lsr 32);
  let p = Pattern.Mint.fresh_pattern m in
  Alcotest.(check bool) "minted patterns are not well-known" false
    (Pattern.is_well_known p);
  Alcotest.(check bool) "minted patterns are not reserved" false (Pattern.is_reserved p);
  let r = Pattern.Mint.fresh_reserved m in
  Alcotest.(check bool) "load patterns are reserved" true (Pattern.is_reserved r)

let test_advertise_reserved_rejected () =
  let _, kernels = make_net 1 in
  let k = List.hd kernels in
  (match Kernel.advertise k Pattern.kill_pattern with
   | Error `Reserved_pattern -> ()
   | Ok () -> Alcotest.fail "reserved pattern advertised");
  match Kernel.unadvertise k (Pattern.boot_pattern 0) with
  | Error `Reserved_pattern -> ()
  | Ok () -> Alcotest.fail "reserved pattern unadvertised"

let test_slot_table_overwrite () =
  (* §5.4: with the 256-slot table, two patterns sharing the low byte
     overwrite each other. *)
  let cost = { Cost.default with Cost.associative_patterns = false } in
  let _, kernels = make_net ~cost 1 in
  let k = List.hd kernels in
  let p1 = Pattern.well_known 0x101 in
  let p2 = Pattern.well_known 0x201 in
  (* same low byte *)
  ignore (Kernel.advertise k p1);
  Alcotest.(check bool) "p1 advertised" true (Kernel.advertised k p1);
  ignore (Kernel.advertise k p2);
  Alcotest.(check bool) "p2 overwrote p1" false (Kernel.advertised k p1);
  Alcotest.(check bool) "p2 advertised" true (Kernel.advertised k p2);
  (* unadvertising p1 must not remove p2 *)
  ignore (Kernel.unadvertise k p1);
  Alcotest.(check bool) "p2 still there" true (Kernel.advertised k p2)

let test_assoc_table_no_overwrite () =
  let _, kernels = make_net 1 in
  let k = List.hd kernels in
  let p1 = Pattern.well_known 0x101 and p2 = Pattern.well_known 0x201 in
  ignore (Kernel.advertise k p1);
  ignore (Kernel.advertise k p2);
  Alcotest.(check bool) "both advertised" true (Kernel.advertised k p1 && Kernel.advertised k p2)

(* ---- request validation ------------------------------------------------------ *)

let test_request_to_self_rejected () =
  let net, kernels = make_net 1 in
  let raised = ref false in
  ignore
    (Sodal.attach (List.hd kernels)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (try ignore (Sodal.signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0)
              with Sodal.Sodal_error _ -> raised := true));
       });
  run net;
  Alcotest.(check bool) "no local messages" true !raised

let test_oversized_data_rejected () =
  let net, kernels = make_net 2 in
  let raised = ref false in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let huge = Bytes.create (Cost.default.Cost.max_data_bytes + 1) in
             (try ignore (Sodal.put env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 huge)
              with Sodal.Sodal_error _ -> raised := true));
       });
  run net;
  Alcotest.(check bool) "no multipackets" true !raised

(* ---- discover ------------------------------------------------------------------ *)

let test_discover_finds_advertisers () =
  let net, kernels = make_net 4 in
  (* mids 0, 2 advertise; 1 has an idle client; 3 is the searcher. *)
  List.iteri
    (fun mid k ->
      if mid = 0 || mid = 2 then ignore (echo_server k patt)
      else if mid = 1 then ignore (Sodal.attach k Sodal.default_spec))
    kernels;
  let found = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 3)
       {
         Sodal.default_spec with
         task = (fun env -> found := Sodal.discover_list env patt ~max:8);
       })
  |> ignore;
  run net;
  Alcotest.(check (list int)) "both advertisers, stagger order" [ 0; 2 ] (List.sort compare !found)

let test_discover_transparent_to_clients () =
  (* §3.4.4: no information about a DISCOVER is ever presented to the
     server client. *)
  let net, kernels = make_net 2 in
  let server_handler_calls = ref 0 in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun _ _ -> incr server_handler_calls);
       });
  let found = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task = (fun env -> found := Sodal.discover_list env patt ~max:4);
       });
  run net;
  Alcotest.(check (list int)) "found" [ 0 ] !found;
  Alcotest.(check int) "server client never interrupted" 0 !server_handler_calls

let test_discover_none () =
  let net, kernels = make_net 2 in
  ignore (List.nth kernels 0);
  let found = ref [ 99 ] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task = (fun env -> found := Sodal.discover_list env patt ~max:4);
       });
  run net;
  Alcotest.(check (list int)) "empty" [] !found

(* §3.4.4: a request addressed to <BROADCAST, pattern> is a DISCOVER; the
   mids that answered land in the get buffer as 16-bit big-endian words. *)
let test_discover_by_broadcast_address () =
  let net, kernels = make_net 4 in
  List.iteri (fun mid k -> if mid = 0 || mid = 2 then ignore (echo_server k patt)) kernels;
  let got = ref None in
  ignore
    (Sodal.attach (List.nth kernels 3)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let into = Bytes.make 8 '\xff' in
             let c = Sodal.b_get env (Sodal.server_broadcast ~pattern:patt) ~arg:0 ~into in
             got := Some (c.Sodal.status, Bytes.sub_string into 0 c.Sodal.get_transferred));
       });
  run net;
  Alcotest.(check (option (pair bool string))) "both advertisers, in reply order"
    (Some (true, "\000\000\000\002"))
    (Option.map (fun (status, mids) -> (status = Sodal.Comp_ok, mids)) !got)

let test_discover_blocking_retries () =
  (* Sodal.discover loops until some server advertises. *)
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  (* Server advertises only after 200 ms. *)
  ignore
    (Sodal.attach k0
       {
         Sodal.default_spec with
         task =
           (fun env ->
             Sodal.compute env 200_000;
             Sodal.advertise env patt;
             Sodal.idle env);
       });
  let sv = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task = (fun env -> sv := Some (Sodal.discover env patt));
       });
  run ~horizon:600.0 net;
  match !sv with
  | Some { Types.sv_mid = Types.Mid 0; _ } -> ()
  | _ -> Alcotest.fail "discover did not find the late advertiser"

(* ---- booting / killing ------------------------------------------------------------ *)

let decode_pattern_bytes b =
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code (Bytes.get b i)
  done;
  Pattern.of_int !v

let test_network_boot () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  let booted = ref false in
  let got_image = ref "" in
  ignore got_image;
  (* Node 0 is a free machine; register what runs when it is booted. *)
  Sodal.bootable k0
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env patt);
      task =
        (fun env ->
          booted := true;
          Sodal.idle env);
    };
  ignore got_image;
  (* Parent on node 1 performs the full §3.5.2 boot sequence. *)
  let served = ref false in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (* 1. discover a free machine of kind 0 *)
             let boot = Pattern.boot_pattern 0 in
             let mids = Sodal.discover_list env boot ~max:4 in
             Alcotest.(check (list int)) "free machine found" [ 0 ] mids;
             (* 2. GET the load pattern *)
             let into = Bytes.create 6 in
             let c = Sodal.b_get env (Sodal.server ~mid:0 ~pattern:boot) ~arg:0 ~into in
             Alcotest.(check bool) "load pattern granted" true (c.Sodal.status = Sodal.Comp_ok);
             let load = decode_pattern_bytes into in
             Alcotest.(check bool) "load is reserved" true (Pattern.is_reserved load);
             (* boot pattern now withdrawn *)
             let c2 = Sodal.b_get env (Sodal.server ~mid:0 ~pattern:boot) ~arg:0 ~into in
             Alcotest.(check bool) "boot pattern withdrawn" true
               (c2.Sodal.status = Sodal.Comp_unadvertised);
             (* 3. PUT the core image in two chunks *)
             let sv = Sodal.server ~mid:0 ~pattern:load in
             ignore (Sodal.b_put env sv ~arg:0 (bytes_of_string "CORE"));
             ignore (Sodal.b_put env sv ~arg:0 (bytes_of_string "IMAGE"));
             (* 4. SIGNAL starts the client *)
             ignore (Sodal.b_signal env sv ~arg:0);
             (* 5. talk to the new client *)
             Sodal.compute env 50_000;
             let c3 = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             ignore c3;
             served := true);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "child booted" true !booted;
  Alcotest.(check bool) "parent finished" true !served

let test_kill_pattern () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  ignore (echo_server k0 patt);
  let after_kill = ref Sodal.Comp_ok in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (* working before the kill *)
             let c = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             Alcotest.(check bool) "alive" true (c.Sodal.status = Sodal.Comp_ok);
             (* privileged kill *)
             ignore (Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:Pattern.kill_pattern) ~arg:0);
             Sodal.compute env 100_000;
             let c2 = Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0 in
             after_kill := c2.Sodal.status);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "client killed, pattern gone" true
    (!after_kill = Sodal.Comp_unadvertised)

let test_boot_patterns_readvertised_after_kill () =
  let net, kernels = make_net 2 in
  let k0 = List.nth kernels 0 in
  ignore (echo_server k0 patt);
  let free_before = ref [ 99 ] and free_after = ref [] in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let boot = Pattern.boot_pattern 0 in
             free_before := Sodal.discover_list env boot ~max:4;
             ignore (Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:Pattern.kill_pattern) ~arg:0);
             Sodal.compute env 200_000;
             free_after := Sodal.discover_list env boot ~max:4);
       });
  run ~horizon:600.0 net;
  Alcotest.(check (list int)) "busy node not bootable" [] !free_before;
  Alcotest.(check (list int)) "killed node becomes bootable" [ 0 ] !free_after

let test_system_pattern_privilege () =
  (* Only machine 0 may alter reserved patterns (§3.5.4). *)
  let net, kernels = make_net 3 in
  ignore (List.nth kernels 2);
  let from_nonzero = ref Sodal.Comp_ok in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let payload = Bytes.make 6 '\000' in
             let c =
               Sodal.b_put env
                 (Sodal.server ~mid:2 ~pattern:Pattern.system_pattern)
                 ~arg:3 payload
             in
             from_nonzero := c.Sodal.status);
       });
  run ~horizon:600.0 net;
  Alcotest.(check bool) "non-privileged SYSTEM rejected" true
    (!from_nonzero = Sodal.Comp_rejected)

(* ---- reboot quarantine (§5.4) ------------------------------------------------ *)

module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector

(* The server node is torn down mid-transaction and rebooted with a fresh
   boot epoch. The requester's probe machinery must classify the request
   CRASHED (§3.6.2); the rebooted incarnation must then serve normally. *)
let test_server_reboot_client_sees_crashed () =
  let net, kernels = make_net 2 in
  let server_spec =
    {
      Sodal.default_spec with
      Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
      on_request =
        (fun env _info ->
          (* a long handler turnaround: the crash lands mid-transaction *)
          Sodal.compute env 800_000;
          ignore (Sodal.accept_current_signal env ~arg:0));
    }
  in
  ignore (Sodal.attach (List.nth kernels 0) server_spec);
  let first = ref None and second = ref None in
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:patt in
             let c1 = Sodal.b_signal env sv ~arg:0 in
             first := Some c1.Sodal.status;
             (* wait out the reboot (1 s) plus its ~256 ms quarantine so
                the fresh incarnation is reachable before retrying *)
             Sodal.compute env 2_000_000;
             let c2 = Sodal.b_signal env sv ~arg:0 in
             second := Some c2.Sodal.status);
       });
  let plan =
    [
      { Fault_plan.at_us = 100_000; action = Fault_plan.Crash 0 };
      { Fault_plan.at_us = 1_000_000; action = Fault_plan.Reboot 0 };
    ]
  in
  Injector.install net plan
    ~on_reboot:(fun ~mid:_ kernel -> ignore (Sodal.attach kernel server_spec));
  run ~horizon:600.0 net;
  Alcotest.(check bool) "request crossing the crash completes CRASHED" true
    (!first = Some Sodal.Comp_crashed);
  Alcotest.(check bool) "rebooted incarnation serves OK" true
    (!second = Some Sodal.Comp_ok)

(* A TID minted before the *requester's* reboot: when the server finally
   ACCEPTs it, the rebooted requester's mint classifies it stale and
   answers Err_crashed, which the server observes as ACCEPT status
   CRASHED (§5.4 / §3.6.1). The ACCEPT must carry get data: a dataless
   (signal) ACCEPT completes without awaiting the requester's answer, so
   only a data-bearing one can observe the Err_crashed. *)
let test_stale_tid_answered_err_crashed () =
  let net, kernels = make_net 2 in
  let acc_status = ref None in
  ignore
    (Sodal.attach (List.nth kernels 0)
       {
         Sodal.default_spec with
         Sodal.init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request =
           (fun env info ->
             (* hold the ACCEPT until well after the requester rebooted *)
             Sodal.compute env 500_000;
             let st, _ =
               Sodal.accept_current_exchange env ~arg:0
                 ~into:(Bytes.create info.Sodal.put_size)
                 ~data:(Bytes.of_string "reply")
             in
             acc_status := Some st);
       });
  ignore
    (Sodal.attach (List.nth kernels 1)
       {
         Sodal.default_spec with
         task =
           (fun env ->
             (* minted pre-reboot; the node dies while it is outstanding *)
             ignore
               (Sodal.b_exchange env
                  (Sodal.server ~mid:0 ~pattern:patt)
                  ~arg:0 Bytes.empty ~into:(Bytes.create 16)));
       });
  let plan =
    [
      { Fault_plan.at_us = 100_000; action = Fault_plan.Crash 1 };
      { Fault_plan.at_us = 200_000; action = Fault_plan.Reboot 1 };
    ]
  in
  (* no quarantine: the fresh incarnation must be reachable when the
     server's held-back ACCEPT finally goes out at ~500 ms *)
  Injector.install net plan ~quarantine:false
    ~on_reboot:(fun ~mid:_ kernel ->
      ignore (Sodal.attach kernel Sodal.default_spec));
  run ~horizon:600.0 net;
  Alcotest.(check bool) "server sees ACCEPT status CRASHED" true
    (!acc_status = Some Types.Accept_crashed)

(* A DIE while the Booting invocation waits out its context switch: the
   invocation reaches neither the dead client nor the one attached right
   after it, which gets its own Booting once. *)
let test_die_drops_waiting_invocation () =
  let net, kernels = make_net 1 in
  let k = List.hd kernels in
  let client calls =
    { Kernel.invoke_handler =
        (fun _ ->
          incr calls;
          Kernel.endhandler k);
      on_kill = ignore }
  in
  let dead = ref 0 and fresh = ref 0 in
  Kernel.attach_client k ~parent:0 (client dead);
  Kernel.die k;
  Kernel.attach_client k ~parent:0 (client fresh);
  run ~horizon:5.0 net;
  Alcotest.(check int) "the dead client is never invoked" 0 !dead;
  Alcotest.(check int) "the new client is invoked once" 1 !fresh

let suites =
  [
    ( "kernel.patterns",
      [
        Alcotest.test_case "classes" `Quick test_pattern_classes;
        Alcotest.test_case "mint" `Quick test_mint_uniqueness_and_floor;
        Alcotest.test_case "reserved not advertisable" `Quick test_advertise_reserved_rejected;
        Alcotest.test_case "slot table overwrite (§5.4)" `Quick test_slot_table_overwrite;
        Alcotest.test_case "associative table" `Quick test_assoc_table_no_overwrite;
      ] );
    ( "kernel.validation",
      [
        Alcotest.test_case "request to self" `Quick test_request_to_self_rejected;
        Alcotest.test_case "oversized data" `Quick test_oversized_data_rejected;
      ] );
    ( "kernel.discover",
      [
        Alcotest.test_case "finds advertisers" `Quick test_discover_finds_advertisers;
        Alcotest.test_case "transparent to clients" `Quick test_discover_transparent_to_clients;
        Alcotest.test_case "no advertisers" `Quick test_discover_none;
        Alcotest.test_case "request to the broadcast address" `Quick
          test_discover_by_broadcast_address;
        Alcotest.test_case "blocking discover retries" `Quick test_discover_blocking_retries;
      ] );
    ( "kernel.boot",
      [
        Alcotest.test_case "network boot sequence" `Quick test_network_boot;
        Alcotest.test_case "kill pattern" `Quick test_kill_pattern;
        Alcotest.test_case "boot patterns readvertised" `Quick
          test_boot_patterns_readvertised_after_kill;
        Alcotest.test_case "system pattern privilege" `Quick test_system_pattern_privilege;
        Alcotest.test_case "DIE drops a waiting handler invocation" `Quick
          test_die_drops_waiting_invocation;
      ] );
    ( "kernel.reboot",
      [
        Alcotest.test_case "server reboot -> Comp_crashed, then serves" `Quick
          test_server_reboot_client_sees_crashed;
        Alcotest.test_case "stale TID answered Err_crashed (§5.4)" `Quick
          test_stale_tid_answered_err_crashed;
      ] );
  ]
