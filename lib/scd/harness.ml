module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Cost = Soda_base.Cost_model
module Network = Soda_core.Network
module Sodal = Soda_runtime.Sodal
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector

type op_kind = Write of int * int | Snapshot | Incr of int | Cread

type outcome =
  | Wrote of Scd.ts
  | Snap of (int * Scd.ts) array
  | Incred
  | Counted of int
  | Failed

type op = {
  client : int;
  index : int;
  kind : op_kind;
  start_us : int;
  end_us : int;
  outcome : outcome;
}

type result = {
  net : Network.t;
  members : Scd.member array;
  history : op list;
  clients_total : int;
  clients_done : int;
  elapsed_us : int;
  issued : (int * op_kind) list;  (* every invocation, even unfinished ones *)
}

let cluster = "h"

(* Write values and increment deltas are injective in (client mid, script
   index): the checkers use that to trace every observed value back to
   the operation that produced it. *)
let write_value ~mid ~index = (mid * 1_000_000) + index
let incr_delta ~mid ~index = (mid * 1_000) + index + 1

let script rng ~mid ~ops ~regs ~think_us =
  List.init ops (fun i ->
      let think = if think_us > 0 then Rng.int rng think_us else 0 in
      let kind =
        match Rng.int rng 4 with
        | 0 -> Write (Rng.int rng (max regs 1), write_value ~mid ~index:i)
        | 1 -> Snapshot
        | 2 -> Incr (incr_delta ~mid ~index:i)
        | _ -> Cread
      in
      (i, kind, think))

let client_spec ~n ~regs ~script ~arrivals ~record ~issued ~done_count =
  {
    Sodal.default_spec with
    task =
      (fun env ->
        (* let members boot and advertise *)
        Sodal.compute env 50_000;
        (* collect patience scales with the cluster: one scd-broadcast is
           n(n-1) frames on the shared bus, so delivery latency — and with
           it the number of Delta-t collect rounds a live operation needs —
           grows quadratically with n *)
        let h =
          Scd.handle env ~attempts:(max 12 (2 * n)) ~cluster
            ~mids:(List.init n Fun.id) ~regs
        in
        List.iter
          (fun (index, kind, think) ->
            (match arrivals with
             | None -> if think > 0 then Sodal.compute env think
             | Some at ->
               (* open-loop: the arrival clock never waits for the
                  cluster, so a backlog forms under overload *)
               let due = at.(index) in
               let now = Sodal.now env in
               if now < due then Sodal.compute env (due - now));
            let start_us = Sodal.now env in
            issued (Sodal.my_mid env, kind);
            let outcome =
              match kind with
              | Write (reg, v) -> (
                match Scd.write env h ~reg v with
                | Ok ts -> Wrote ts
                | Error Scd.Unreachable -> Failed)
              | Snapshot -> (
                match Scd.snapshot env h with
                | Ok arr -> Snap arr
                | Error Scd.Unreachable -> Failed)
              | Incr delta -> (
                match Scd.incr env h ~delta with
                | Ok () -> Incred
                | Error Scd.Unreachable -> Failed)
              | Cread -> (
                match Scd.cread env h with
                | Ok v -> Counted v
                | Error Scd.Unreachable -> Failed)
            in
            record
              {
                client = Sodal.my_mid env;
                index;
                kind;
                start_us;
                end_us = Sodal.now env;
                outcome;
              })
          script;
        incr done_count);
  }

let run ?(n = 3) ?(clients = 2) ?(ops = 6) ?(regs = 2) ?(seed = 1) ?(think_us = 100_000)
    ?mean_interarrival_us ?plan ?trace ?(horizon_us = 600_000_000) () =
  (* echo fan-out plus a client op can pin n+1 slots through a Delta-t
     verdict on a crashed peer; give everyone headroom *)
  let cost = { Cost.default with maxrequests = n + 2 } in
  let net = Network.create ~seed ~cost ?trace ?causal:trace () in
  let mids = List.init n Fun.id in
  let members =
    Array.init n (fun index -> Scd.member ~cluster ~index ~mids ~regs)
  in
  for mid = 0 to n - 1 do
    let kernel = Network.add_node net ~mid in
    ignore (Sodal.attach kernel (Scd.member_spec members.(mid)))
  done;
  let history = ref [] in
  let issued_log = ref [] in
  let record op = history := op :: !history in
  let issued inv = issued_log := inv :: !issued_log in
  let done_count = ref 0 in
  let rng = Rng.split (Engine.rng (Network.engine net)) in
  for c = 0 to clients - 1 do
    let mid = n + c in
    let kernel = Network.add_node net ~mid in
    let crng = Rng.split rng in
    let script = script crng ~mid ~ops ~regs ~think_us in
    let arrivals =
      match mean_interarrival_us with
      | None -> None
      | Some mean ->
        let at = Array.make ops 0 in
        let t = ref 100_000 in
        for i = 0 to ops - 1 do
          let u = Rng.float crng 1.0 in
          t := !t + max 1 (int_of_float (-.float_of_int mean *. log (1.0 -. u)));
          at.(i) <- !t
        done;
        Some at
    in
    ignore
      (Sodal.attach kernel
         (client_spec ~n ~regs ~script ~arrivals ~record ~issued ~done_count))
  done;
  (match plan with
   | Some plan ->
     (* preserved-state reboot: re-attach the same member value *)
     Injector.install net plan ~on_reboot:(fun ~mid kernel ->
         if mid < n then ignore (Sodal.attach kernel (Scd.member_spec members.(mid))))
   | None -> ());
  let elapsed_us = Network.run ~until:horizon_us net in
  {
    net;
    members;
    history = List.rev !history;
    clients_total = clients;
    clients_done = !done_count;
    elapsed_us;
    issued = List.rev !issued_log;
  }

(* ---- checkers ----------------------------------------------------------- *)

module Id_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let check_delivery r =
  let exception Violation of string in
  try
    (* every identity any member may deliver: the broadcasts that were
       actually made *)
    let valid =
      Array.to_seq r.members
      |> Seq.fold_lefti
           (fun acc i m ->
             List.fold_left (fun acc sn -> Id_set.add (i, sn) acc) acc
               (Scd.broadcast_sns m))
           Id_set.empty
    in
    (* validity + integrity, and the cumulative delivered unions *)
    let unions =
      Array.mapi
        (fun i m ->
          let seen = ref Id_set.empty in
          let us =
            List.map
              (fun set ->
                List.iter
                  (fun id ->
                    if Id_set.mem id !seen then
                      raise
                        (Violation
                           (Printf.sprintf "integrity: member %d delivered (%d,%d) twice"
                              i (fst id) (snd id)));
                    if not (Id_set.mem id valid) then
                      raise
                        (Violation
                           (Printf.sprintf
                              "validity: member %d delivered (%d,%d) never broadcast" i
                              (fst id) (snd id)));
                    seen := Id_set.add id !seen)
                  set;
                !seen)
              (Scd.deliveries m)
          in
          us)
        r.members
    in
    (* set-constrained delivery / containment: all cumulative unions of
       any two members are comparable — no two messages are ever
       delivered in opposite orders *)
    Array.iteri
      (fun i ui ->
        Array.iteri
          (fun j uj ->
            if i < j then
              List.iter
                (fun a ->
                  List.iter
                    (fun b ->
                      if not (Id_set.subset a b || Id_set.subset b a) then
                        raise
                          (Violation
                             (Printf.sprintf
                                "containment: members %d and %d have incomparable \
                                 delivered prefixes"
                                i j)))
                    uj)
                ui)
          unions)
      unions;
    Ok ()
  with Violation msg -> Error msg

let ts_leq (a : Scd.ts) (b : Scd.ts) = compare a b <= 0
let ts_zero : Scd.ts = (0, -1, -1)

let snap_leq a b =
  Array.for_all2 (fun (_, ta) (_, tb) -> ts_leq ta tb) a b

let check_objects r =
  let exception Violation of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  try
    let acked_writes =
      List.filter_map
        (fun op ->
          match (op.kind, op.outcome) with
          | Write (reg, v), Wrote ts -> Some (ts, reg, v, op)
          | _ -> None)
        r.history
    in
    (* unique timestamps: each write applied (visibly) once *)
    let by_ts = Hashtbl.create 64 in
    List.iter
      (fun (ts, reg, v, _) ->
        (match Hashtbl.find_opt by_ts ts with
         | Some _ ->
           let d, s, q = ts in
           fail "two acked writes share timestamp (%d,%d,%d)" d s q
         | None -> ());
        Hashtbl.replace by_ts ts (reg, v))
      acked_writes;
    let issued_writes =
      List.filter_map
        (fun (_, k) -> match k with Write (reg, v) -> Some (reg, v) | _ -> None)
        r.issued
    in
    let snaps =
      List.filter_map
        (fun op -> match op.outcome with Snap arr -> Some (arr, op) | _ -> None)
        r.history
    in
    (* snapshot values trace back to issued writes; a known timestamp must
       carry that write's register and value *)
    List.iter
      (fun (arr, op) ->
        Array.iteri
          (fun reg (v, ts) ->
            if ts = ts_zero then begin
              if v <> 0 then
                fail "c%d#%d snapshot: reg %d unwritten but value %d" op.client op.index
                  reg v
            end
            else begin
              if not (List.mem (reg, v) issued_writes) then
                fail "c%d#%d snapshot: reg %d reads %d, never written there" op.client
                  op.index reg v;
              match Hashtbl.find_opt by_ts ts with
              | Some (reg', v') when reg' <> reg || v' <> v ->
                fail "c%d#%d snapshot: reg %d timestamp belongs to another write"
                  op.client op.index reg
              | _ -> ()
            end)
          arr)
      snaps;
    (* atomicity: snapshots are totally ordered by their timestamp
       vectors, and that order respects real time *)
    List.iteri
      (fun i (a, oa) ->
        List.iteri
          (fun j (b, ob) ->
            if i < j then begin
              if not (snap_leq a b || snap_leq b a) then
                fail "snapshots c%d#%d and c%d#%d are incomparable" oa.client oa.index
                  ob.client ob.index;
              if oa.end_us < ob.start_us && not (snap_leq a b) then
                fail "snapshot c%d#%d finished before c%d#%d started but is newer"
                  oa.client oa.index ob.client ob.index;
              if ob.end_us < oa.start_us && not (snap_leq b a) then
                fail "snapshot c%d#%d finished before c%d#%d started but is newer"
                  ob.client ob.index oa.client oa.index
            end)
          snaps)
      snaps;
    (* real-time between writes and snapshots *)
    List.iter
      (fun (ts, reg, _, w) ->
        List.iter
          (fun (arr, s) ->
            let _, sts = arr.(reg) in
            if w.end_us < s.start_us && not (ts_leq ts sts) then
              fail "write c%d#%d acked before snapshot c%d#%d but is missing from it"
                w.client w.index s.client s.index;
            if s.end_us < w.start_us && ts_leq ts sts then
              fail "snapshot c%d#%d finished before write c%d#%d started yet shows it"
                s.client s.index w.client w.index)
          snaps)
      acked_writes;
    (* counter: reads bounded by issued increments, monotone per client,
       and at least the sum of increments acked before the read began *)
    let total_issued =
      List.fold_left
        (fun acc (_, k) -> match k with Incr d -> acc + d | _ -> acc)
        0 r.issued
    in
    let acked_incrs =
      List.filter_map
        (fun op ->
          match (op.kind, op.outcome) with
          | Incr d, Incred -> Some (d, op.end_us)
          | _ -> None)
        r.history
    in
    let last_read = Hashtbl.create 8 in
    List.iter
      (fun op ->
        match op.outcome with
        | Counted c ->
          if c < 0 || c > total_issued then
            fail "c%d#%d counter read %d outside [0, %d issued]" op.client op.index c
              total_issued;
          let floor =
            List.fold_left
              (fun acc (d, end_us) -> if end_us < op.start_us then acc + d else acc)
              0 acked_incrs
          in
          if c < floor then
            fail "c%d#%d counter read %d below %d (increments acked before it)" op.client
              op.index c floor;
          (match Hashtbl.find_opt last_read op.client with
           | Some prev when c < prev ->
             fail "c%d#%d counter read %d went backwards (saw %d)" op.client op.index c
               prev
           | _ -> ());
          Hashtbl.replace last_read op.client c
        | _ -> ())
      r.history;
    Ok ()
  with Violation msg -> Error msg

let check_convergence r =
  let exception Violation of string in
  try
    let m0 = r.members.(0) in
    let union m =
      List.fold_left
        (fun acc set -> List.fold_left (fun acc id -> Id_set.add id acc) acc set)
        Id_set.empty (Scd.deliveries m)
    in
    let u0 = union m0 in
    Array.iteri
      (fun i m ->
        if i > 0 then begin
          if not (Id_set.equal (union m) u0) then
            raise (Violation (Printf.sprintf "member %d delivered a different set" i));
          if Scd.registers m <> Scd.registers m0 then
            raise (Violation (Printf.sprintf "member %d registers diverge" i));
          if Scd.counter_value m <> Scd.counter_value m0 then
            raise (Violation (Printf.sprintf "member %d counter diverges" i))
        end)
      r.members;
    Ok ()
  with Violation msg -> Error msg

let stamps_missing ?(live = fun _ -> true) r =
  let lack = ref 0 in
  Array.iteri
    (fun i m ->
      Array.iteri
        (fun j peer ->
          if i <> j && live i && live j then lack := !lack + Scd.clock peer - Scd.next_stamp m j)
        r.members)
    r.members;
  !lack

let pp_history ppf history =
  let pp_ts ppf (d, sd, sn) = Format.fprintf ppf "(%d,%d,%d)" d sd sn in
  List.iter
    (fun op ->
      let kind =
        match op.kind with
        | Write (reg, v) -> Printf.sprintf "write r%d=%d" reg v
        | Snapshot -> "snapshot"
        | Incr d -> Printf.sprintf "incr +%d" d
        | Cread -> "cread"
      in
      Format.fprintf ppf "c%d#%d [%d..%d] %s " op.client op.index op.start_us op.end_us
        kind;
      (match op.outcome with
       | Wrote ts -> Format.fprintf ppf "-> ts%a" pp_ts ts
       | Snap arr ->
         Format.fprintf ppf "-> {";
         Array.iteri
           (fun r (v, ts) -> Format.fprintf ppf "%sr%d=%d@%a" (if r > 0 then " " else "") r v pp_ts ts)
           arr;
         Format.fprintf ppf "}"
       | Incred -> Format.fprintf ppf "-> ok"
       | Counted c -> Format.fprintf ppf "-> %d" c
       | Failed -> Format.fprintf ppf "-> UNREACHABLE");
      Format.fprintf ppf "@.")
    history
