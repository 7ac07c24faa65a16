module Engine = Soda_sim.Engine
module Bus = Soda_net.Bus
module Cost = Soda_base.Cost_model
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event

type t = {
  engine : Engine.t;
  bus : Bus.t;
  recorder : Recorder.t;
  cost : Cost.t;
  nodes : (int, Kernel.t) Hashtbl.t;
  node_boot_kinds : (int, int list) Hashtbl.t;  (* survives crash_node for reboots *)
}

let create ?(seed = 42) ?(cost = Cost.default) ?bus_config ?(trace = false)
    ?(causal = false) () =
  let engine = Engine.create ~seed () in
  let recorder = Recorder.create ~tracing:trace () in
  Recorder.set_causal recorder causal;
  let bus = Bus.create ?config:bus_config ~obs:recorder engine in
  {
    engine;
    bus;
    recorder;
    cost;
    nodes = Hashtbl.create 8;
    node_boot_kinds = Hashtbl.create 8;
  }

let engine t = t.engine
let bus t = t.bus
let recorder t = t.recorder
let cost t = t.cost

let emit_fault t kind =
  let r = recorder t in
  if Recorder.tracing r then
    Recorder.emit r ~time_us:(Engine.now t.engine) ~mid:(-1) kind

let add_node ?(boot_kinds = [ 0 ]) t ~mid =
  if Hashtbl.mem t.nodes mid then
    invalid_arg (Printf.sprintf "Network.add_node: mid %d exists" mid);
  let kernel =
    Kernel.create ~engine:t.engine ~bus:t.bus ~recorder:t.recorder ~cost:t.cost ~mid ~boot_kinds
  in
  Hashtbl.replace t.nodes mid kernel;
  Hashtbl.replace t.node_boot_kinds mid boot_kinds;
  kernel

let node t ~mid =
  match Hashtbl.find_opt t.nodes mid with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Network.node: no mid %d" mid)

let nodes t =
  Hashtbl.fold (fun mid k acc -> (mid, k) :: acc) t.nodes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- fault injection: whole-node crash and reboot ------------------------- *)

let crash_node t ~mid =
  let kernel = node t ~mid in
  emit_fault t (Event.Fault_crash { mid });
  Kernel.destroy kernel;
  Hashtbl.remove t.nodes mid

let reboot_node ?(quarantine = true) t ~mid =
  if Hashtbl.mem t.nodes mid then
    invalid_arg
      (Printf.sprintf "Network.reboot_node: mid %d still running (crash it first)" mid);
  let boot_kinds =
    match Hashtbl.find_opt t.node_boot_kinds mid with Some ks -> ks | None -> [ 0 ]
  in
  emit_fault t (Event.Fault_reboot { mid });
  (* A fresh [Kernel.create] is a fresh boot epoch: the new mint starts
     empty, so TIDs minted by the previous incarnation classify as stale
     and late ACCEPTs are answered CRASHED (§5.4). *)
  let kernel =
    Kernel.create ~engine:t.engine ~bus:t.bus ~recorder:t.recorder ~cost:t.cost ~mid ~boot_kinds
  in
  Hashtbl.replace t.nodes mid kernel;
  if quarantine then Kernel.quarantine kernel;
  kernel

let run ?until t = Engine.run ?until t.engine

let run_for t ~duration = Engine.run_for t.engine ~duration

let now t = Engine.now t.engine
