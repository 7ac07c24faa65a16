module Engine = Soda_sim.Engine
module Bus = Soda_net.Bus
module Network = Soda_core.Network
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event

let emit net kind =
  let r = Network.recorder net in
  if Recorder.tracing r then
    Recorder.emit r ~time_us:(Network.now net) ~mid:(-1) kind

let node_exists net ~mid = List.mem_assoc mid (Network.nodes net)

let apply ?(quarantine = true) ?on_reboot net action =
  let bus = Network.bus net in
  match action with
  | Fault_plan.Partition (a, b) -> Bus.set_partition bus (a, b)
  | Fault_plan.Heal -> Bus.heal bus
  | Fault_plan.Crash mid ->
    (* Tolerate a plan that crashes an already-dead node: randomized plans
       may schedule a crash inside an existing crash window. *)
    if node_exists net ~mid then Network.crash_node net ~mid
  | Fault_plan.Reboot mid ->
    if not (node_exists net ~mid) then begin
      let kernel = Network.reboot_node ~quarantine net ~mid in
      match on_reboot with
      | Some f -> f ~mid kernel
      | None -> ()
    end
  | Fault_plan.Duplicate_next n -> Bus.duplicate_next ~count:n bus
  | Fault_plan.Delay_jitter { min_us; max_us } ->
    Bus.set_delay_jitter bus ~min_us ~max_us
  | Fault_plan.Loss_burst { rate; duration_us } ->
    let saved = (Bus.config bus).Bus.loss_rate in
    Bus.set_loss_rate bus rate;
    emit net
      (Event.Fault_loss_burst
         { rate_pct = int_of_float ((rate *. 100.0) +. 0.5); duration_us });
    Engine.schedule ~tag:"fault" (Network.engine net) ~delay:duration_us (fun () ->
        Bus.set_loss_rate bus saved)

let install ?quarantine ?on_reboot net plan =
  let engine = Network.engine net in
  let now = Engine.now engine in
  List.iter
    (fun { Fault_plan.at_us; action } ->
      let delay = max 0 (at_us - now) in
      Engine.schedule ~tag:"fault" engine ~delay (fun () ->
          apply ?quarantine ?on_reboot net action))
    plan
