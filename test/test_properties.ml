(* Property-based tests (qcheck) on the protocol and core data structures. *)

open Helpers
module Bus = Soda_net.Bus

let patt = Pattern.well_known 0o333

(* The central reliability property, for any seed and loss rate up to 30%:
   every signal eventually completes with SOME status; the deliveries at
   the server are a subsequence of the issue order with no duplicates and
   no inventions; every COMPLETED op was delivered (exactly once). An op
   may legitimately complete CRASHED under extreme loss -- the protocol's
   retransmissions are bounded (max_retrans, §5.2.2) -- and such an op may
   or may not have been delivered (the loss may have eaten the ack). *)
let prop_exactly_once_any_seed =
  QCheck.Test.make ~name:"transport: exactly-once in-order delivery under loss" ~count:25
    QCheck.(pair small_int (int_bound 30))
    (fun (seed, loss_pct) ->
      let net, kernels = make_net ~seed:(seed + 1) 2 in
      Bus.set_loss_rate (Network.bus net) (float_of_int loss_pct /. 100.0);
      let seen = ref [] in
      ignore
        (Sodal.attach (List.nth kernels 0)
           {
             Sodal.default_spec with
             init = (fun env ~parent:_ -> Sodal.advertise env patt);
             on_request =
               (fun env info ->
                 seen := info.Sodal.arg :: !seen;
                 ignore (Sodal.accept_current_signal env ~arg:0));
           });
      let statuses = Hashtbl.create 8 in
      let n = 8 in
      ignore
        (Sodal.attach (List.nth kernels 1)
           {
             Sodal.default_spec with
             task =
               (fun env ->
                 let sv = Sodal.server ~mid:0 ~pattern:patt in
                 for i = 1 to n do
                   let c = Sodal.b_signal env sv ~arg:i in
                   Hashtbl.replace statuses i c.Sodal.status
                 done);
           });
      ignore (Network.run ~until:600_000_000 net);
      let deliveries = List.rev !seen in
      let all_completed = Hashtbl.length statuses = n in
      let no_duplicates =
        List.length deliveries = List.length (List.sort_uniq compare deliveries)
      in
      let in_order = List.sort compare deliveries = deliveries in
      let consistent =
        List.for_all
          (fun i ->
            match Hashtbl.find_opt statuses i with
            | Some Sodal.Comp_ok -> List.mem i deliveries
            | Some Sodal.Comp_crashed -> true  (* delivered at most once *)
            | Some (Sodal.Comp_rejected | Sodal.Comp_unadvertised) | None -> false)
          (List.init n (fun i -> i + 1))
      in
      let no_inventions = List.for_all (fun d -> d >= 1 && d <= n) deliveries in
      all_completed && no_duplicates && in_order && consistent && no_inventions)

(* Data integrity: what the client PUTs is exactly what the server's accept
   buffer receives, for arbitrary payloads, under corruption injection
   (CRC must catch every damaged frame). *)
let prop_payload_integrity =
  QCheck.Test.make ~name:"transport: payload integrity under corruption" ~count:20
    QCheck.(pair small_int (string_of_size Gen.(1 -- 800)))
    (fun (seed, payload) ->
      let net, kernels = make_net ~seed:(seed + 13) 2 in
      Bus.set_corruption_rate (Network.bus net) 0.15;
      let received = ref "" in
      ignore
        (Sodal.attach (List.nth kernels 0)
           {
             Sodal.default_spec with
             init = (fun env ~parent:_ -> Sodal.advertise env patt);
             on_request =
               (fun env info ->
                 let into = Bytes.create info.Sodal.put_size in
                 let status, got = Sodal.accept_current_put env ~arg:0 ~into in
                 if status = Types.Accept_success then
                   received := Bytes.sub_string into 0 got);
           });
      let ok = ref false in
      ignore
        (Sodal.attach (List.nth kernels 1)
           {
             Sodal.default_spec with
             task =
               (fun env ->
                 let c =
                   Sodal.b_put env (Sodal.server ~mid:0 ~pattern:patt) ~arg:0
                     (Bytes.of_string payload)
                 in
                 ok := c.Sodal.status = Sodal.Comp_ok);
           });
      ignore (Network.run ~until:600_000_000 net);
      (* A completed op must have delivered the exact payload; a (rare)
         bounded-retransmission failure must not have corrupted anything:
         either nothing arrived or the intact payload did. *)
      if !ok then !received = payload else !received = "" || !received = payload)

(* Determinism: the same seed must produce the identical event history
   (final virtual time and packet count). *)
let prop_determinism =
  QCheck.Test.make ~name:"engine: identical seeds give identical runs" ~count:15
    QCheck.small_int
    (fun seed ->
      let run_once () =
        let net, kernels = make_net ~seed:(seed + 3) 2 in
        Bus.set_loss_rate (Network.bus net) 0.1;
        ignore (echo_server (List.nth kernels 0) patt);
        let finish = ref 0 in
        ignore
          (Sodal.attach (List.nth kernels 1)
             {
               Sodal.default_spec with
               task =
                 (fun env ->
                   for i = 1 to 5 do
                     ignore (Sodal.b_signal env (Sodal.server ~mid:0 ~pattern:patt) ~arg:i)
                   done;
                   finish := Sodal.now env);
             });
        ignore (Network.run ~until:600_000_000 net);
        (!finish, Soda_obs.Metrics.counter (Bus.stats (Network.bus net)) "bus.frames_sent")
      in
      run_once () = run_once ())

(* Pattern mint: ids unique across mints with distinct serials and within
   a mint, regardless of boot clock. *)
let prop_mint_unique =
  QCheck.Test.make ~name:"pattern mint: no collisions across serials/clocks" ~count:100
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 1_000_000))
    (fun (serial_a, serial_b, clock) ->
      QCheck.assume (serial_a <> serial_b);
      let a = Pattern.Mint.create ~serial:serial_a ~boot_clock:clock in
      let b = Pattern.Mint.create ~serial:serial_b ~boot_clock:clock in
      let ids =
        List.concat_map
          (fun mint -> List.init 20 (fun _ -> Pattern.to_int (Pattern.Mint.fresh_pattern mint)))
          [ a; b ]
      in
      List.length (List.sort_uniq compare ids) = 40)

(* Minted patterns never collide with well-known or reserved name spaces. *)
let prop_mint_namespace =
  QCheck.Test.make ~name:"pattern mint: minted ids outside well-known space" ~count:100
    QCheck.(pair (int_bound 255) (int_bound 1_000_000))
    (fun (serial, clock) ->
      let mint = Pattern.Mint.create ~serial ~boot_clock:clock in
      List.for_all
        (fun _ ->
          let p = Pattern.Mint.fresh_pattern mint in
          (not (Pattern.is_well_known p)) && not (Pattern.is_reserved p))
        (List.init 10 Fun.id))

(* Cost model: derived Delta-t intervals keep their defining inequalities
   for any sensible parameterisation. *)
let prop_cost_intervals =
  QCheck.Test.make ~name:"cost model: delta-t interval ordering" ~count:100
    QCheck.(triple (int_range 1000 100_000) (int_range 1 8) (int_range 1000 100_000))
    (fun (retrans, max_retrans, mpl) ->
      let cost =
        {
          Cost.default with
          Cost.retrans_interval_us = retrans;
          max_retrans;
          mpl_us = mpl;
        }
      in
      let r = Cost.r_us cost in
      let delta_t = Cost.delta_t_us cost in
      let expiry = Cost.record_expiry_us cost in
      let quarantine = Cost.crash_quarantine_us cost in
      r >= retrans
      && delta_t = mpl + r + cost.Cost.ack_grace_us
      && expiry = mpl + delta_t
      && quarantine = (2 * mpl) + delta_t
      && quarantine > expiry)

let suites =
  [
    ( "properties",
      [
        Helpers.qcheck prop_exactly_once_any_seed;
        Helpers.qcheck prop_payload_integrity;
        Helpers.qcheck prop_determinism;
        Helpers.qcheck prop_mint_unique;
        Helpers.qcheck prop_mint_namespace;
        Helpers.qcheck prop_cost_intervals;
      ] );
  ]
