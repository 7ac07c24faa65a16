module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Cost = Soda_base.Cost_model
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Nameserver = Soda_facilities.Nameserver
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector

type op = {
  client : int;
  index : int;
  key : int;
  kind : [ `Read | `Write of string ];
  start_us : int;
  end_us : int;
  outcome : [ `Ok of string option | `Written | `No_quorum ];
}

type result = {
  net : Network.t;
  history : op list;
  clients_total : int;
  clients_done : int;
  replicas : Store.replica array;
  elapsed_us : int;
}

let cluster = "h"

(* A client's script, fixed before the run from a split of the engine
   RNG so the (seed, plan) pair fully determines the workload. Think
   times pace the script across the fault plan's schedule. *)
let script rng ~mid ~ops ~keys ~think_us =
  List.init ops (fun i ->
      let key = Rng.int rng (max keys 1) in
      let think = if think_us > 0 then Rng.int rng think_us else 0 in
      if Rng.bool rng then (i, key, `Read, think)
      else (i, key, `Write (Printf.sprintf "c%d#%d" mid i), think))

let client_spec ~n ~use_nameserver ~script ~record ~done_count =
  {
    Sodal.default_spec with
    task =
      (fun env ->
        (* let replicas boot and (in switchboard mode) register *)
        Sodal.compute env 50_000;
        let handle =
          if use_nameserver then
            let rec connect k =
              match Store.connect env ~cluster ~n () with
              | Ok h -> Some h
              | Error _ when k < 5 ->
                Sodal.compute env 200_000;
                connect (k + 1)
              | Error _ -> None
            in
            connect 1
          else Some (Store.handle env ~cluster ~mids:(List.init n Fun.id))
        in
        match handle with
        | None -> ()  (* switchboard unreachable: script abandoned *)
        | Some h ->
          List.iter
            (fun (index, key, kind, think) ->
              if think > 0 then Sodal.compute env think;
              let start_us = Sodal.now env in
              let outcome =
                match kind with
                | `Read ->
                  (match Store.read env h ~key with
                   | Ok v -> `Ok (Option.map Bytes.to_string v)
                   | Error Store.No_quorum -> `No_quorum)
                | `Write v ->
                  (match Store.write env h ~key (Bytes.of_string v) with
                   | Ok () -> `Written
                   | Error Store.No_quorum -> `No_quorum)
              in
              record
                {
                  client = Sodal.my_mid env;
                  index;
                  key;
                  kind;
                  start_us;
                  end_us = Sodal.now env;
                  outcome;
                })
            script;
          incr done_count);
  }

let run ?(n = 3) ?(clients = 2) ?(ops = 8) ?(keys = 2) ?(seed = 1) ?(loss = 0.0)
    ?(think_us = 250_000) ?plan ?(use_nameserver = false) ?trace
    ?(horizon_us = 600_000_000) () =
  (* a handle keeps at most one request in flight per replica (n in
     all, one of them perhaps pinned on a dead replica until its Delta-t
     verdict); the default MAXREQUESTS = 3 is too few for n = 5, and n + 2
     leaves room for switchboard lookups while laggards are out *)
  let cost = { Cost.default with maxrequests = n + 2 } in
  (* Tracing implies causal: a traced store run should reconstruct each
     client op's cross-node tree without a second switch to remember. *)
  let net = Network.create ~seed ~cost ?trace ?causal:trace () in
  if loss > 0.0 then Soda_net.Bus.set_loss_rate (Network.bus net) loss;
  let replicas = Array.init n (fun index -> Store.replica ~cluster ~index) in
  for mid = 0 to n - 1 do
    let kernel = Network.add_node net ~mid in
    ignore (Sodal.attach kernel (Store.replica_spec ~register:use_nameserver replicas.(mid)))
  done;
  if use_nameserver then begin
    let kernel = Network.add_node net ~mid:n in
    ignore (Sodal.attach kernel (Nameserver.spec ()))
  end;
  let history = ref [] in
  let record op = history := op :: !history in
  let done_count = ref 0 in
  let rng = Rng.split (Engine.rng (Network.engine net)) in
  for c = 0 to clients - 1 do
    let mid = n + 1 + c in
    let kernel = Network.add_node net ~mid in
    let script = script (Rng.split rng) ~mid ~ops ~keys ~think_us in
    ignore
      (Sodal.attach kernel
         (client_spec ~n ~use_nameserver ~script ~record ~done_count))
  done;
  (match plan with
   | Some plan ->
     (* preserved-state reboot: re-attach the same replica value *)
     Injector.install net plan ~on_reboot:(fun ~mid kernel ->
         if mid < n then
           ignore
             (Sodal.attach kernel
                (Store.replica_spec ~register:use_nameserver replicas.(mid))))
   | None -> ());
  let elapsed_us = Network.run ~until:horizon_us net in
  {
    net;
    history = List.rev !history;
    clients_total = clients;
    clients_done = !done_count;
    replicas;
    elapsed_us;
  }

let pp_history ppf history =
  List.iter
    (fun op ->
      let kind =
        match op.kind with `Read -> "read" | `Write v -> Printf.sprintf "write %S" v
      in
      let outcome =
        match op.outcome with
        | `Ok None -> "-> none"
        | `Ok (Some v) -> Printf.sprintf "-> %S" v
        | `Written -> "-> ok"
        | `No_quorum -> "-> NO QUORUM"
      in
      Format.fprintf ppf "c%d#%d [%d..%d] key=%d %s %s@." op.client op.index
        op.start_us op.end_us op.key kind outcome)
    history
