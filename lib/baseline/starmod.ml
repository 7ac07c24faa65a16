module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic

type cost = {
  trap_us : int;
  packet_us : int;
  buffer_copy_us : int;
  schedule_us : int;
  dispatch_us : int;
}

(* Calibrated against Leblanc's *MOD measurements on the same hardware
   (sync remote port call 20.7 ms, async port call 11.1 ms): at 170k
   instructions/s these correspond to ~250 instructions per trap, ~380 per
   packet, ~370 per scheduler pass. *)
let default_cost =
  { trap_us = 1500; packet_us = 2250; buffer_copy_us = 300; schedule_us = 2200;
    dispatch_us = 2300 }

(* ---- wire format ------------------------------------------------------- *)

type kind = Msg | Ack | Reply

let kind_to_int = function Msg -> 0 | Ack -> 1 | Reply -> 2

let kind_of_int = function 0 -> Some Msg | 1 -> Some Ack | 2 -> Some Reply | _ -> None

type packet = { kind : kind; seq : int; call_id : int; port : int; payload : bytes }

let encode p =
  let len = Bytes.length p.payload in
  let b = Bytes.create (9 + len) in
  Bytes.set b 0 (Char.chr (kind_to_int p.kind));
  Bytes.set b 1 (Char.chr (p.seq land 0xFF));
  Bytes.set b 2 (Char.chr ((p.call_id lsr 24) land 0xFF));
  Bytes.set b 3 (Char.chr ((p.call_id lsr 16) land 0xFF));
  Bytes.set b 4 (Char.chr ((p.call_id lsr 8) land 0xFF));
  Bytes.set b 5 (Char.chr (p.call_id land 0xFF));
  Bytes.set b 6 (Char.chr ((p.port lsr 8) land 0xFF));
  Bytes.set b 7 (Char.chr (p.port land 0xFF));
  Bytes.set b 8 '\000';
  Bytes.blit p.payload 0 b 9 len;
  b

let decode b =
  if Bytes.length b < 9 then None
  else
    match kind_of_int (Char.code (Bytes.get b 0)) with
    | None -> None
    | Some kind ->
      let u8 i = Char.code (Bytes.get b i) in
      Some
        {
          kind;
          seq = u8 1;
          call_id = (u8 2 lsl 24) lor (u8 3 lsl 16) lor (u8 4 lsl 8) lor u8 5;
          port = (u8 6 lsl 8) lor u8 7;
          payload = Bytes.sub b 9 (Bytes.length b - 9);
        }

(* ---- node --------------------------------------------------------------- *)

type outbound = { ob_packet : packet; ob_dst : int; ob_on_delivered : unit -> unit }

type peer_state = {
  mutable send_seq : int;
  mutable recv_seq : int;  (* next expected; -1 = any *)
  mutable inflight : outbound option;
  retransmit : Engine.timer;  (* armed while [inflight] awaits its ack *)
  queue : outbound Queue.t;
}

type node = {
  engine : Engine.t;
  bus : Bus.t;
  mid : int;
  cost : cost;
  stats : Stats.t;
  mutable nic : Nic.t option;
  ports : (int, bytes -> bytes option) Hashtbl.t;
  peers : (int, peer_state) Hashtbl.t;
  calls : (int, bytes -> unit) Hashtbl.t;
  mutable next_call : int;
}

let stats node = node.stats

let retransmit_us = 25_000

let rec peer node mid =
  match Hashtbl.find_opt node.peers mid with
  | Some p -> p
  | None ->
    let p =
      { send_seq = 0; recv_seq = -1; inflight = None;
        retransmit = Engine.timer node.engine (fun () -> retransmit node mid);
        queue = Queue.create () }
    in
    Hashtbl.replace node.peers mid p;
    p

and retransmit node dst =
  match (peer node dst).inflight with
  | Some ob ->
    Stats.incr node.stats "starmod.pkt.retransmitted";
    transmit node dst ob
  | None -> ()

and pump node dst =
  let p = peer node dst in
  match p.inflight with
  | Some _ -> ()
  | None ->
    if not (Queue.is_empty p.queue) then begin
      let ob = Queue.pop p.queue in
      transmit node dst ob
    end

and transmit node dst ob =
  let p = peer node dst in
  let packet = { ob.ob_packet with seq = p.send_seq } in
  Stats.incr node.stats "starmod.pkt.sent";
  let nic = Option.get node.nic in
  (* kernel protocol work, then the wire *)
  Engine.schedule node.engine ~delay:node.cost.packet_us (fun () ->
      Nic.send nic ~dst (encode packet));
  Engine.arm node.engine p.retransmit ~delay:retransmit_us;
  p.inflight <- Some ob

let send_packet node ~dst ~kind ~call_id ~port payload ~on_delivered =
  let ob =
    { ob_packet = { kind; seq = 0; call_id; port; payload }; ob_dst = dst;
      ob_on_delivered = on_delivered }
  in
  let p = peer node dst in
  Queue.push ob p.queue;
  pump node dst

let send_ack node ~dst ~seq =
  Stats.incr node.stats "starmod.pkt.sent";
  let nic = Option.get node.nic in
  Engine.schedule node.engine ~delay:node.cost.packet_us (fun () ->
      Nic.send nic ~dst
        (encode { kind = Ack; seq; call_id = 0; port = 0; payload = Bytes.empty }))

let deliver node ~src packet =
  (* kernel buffering + port demultiplex + wake the owning process *)
  let c = node.cost in
  let delay = c.buffer_copy_us + c.dispatch_us + c.schedule_us in
  Engine.schedule node.engine ~delay (fun () ->
      match packet.kind with
      | Msg ->
        (match Hashtbl.find_opt node.ports packet.port with
         | Some handler ->
           (match handler packet.payload with
            | Some reply ->
              send_packet node ~dst:src ~kind:Reply ~call_id:packet.call_id
                ~port:packet.port reply ~on_delivered:(fun () -> ())
              |> ignore
            | None -> ())
         | None -> ())
      | Reply ->
        (match Hashtbl.find_opt node.calls packet.call_id with
         | Some on_reply ->
           Hashtbl.remove node.calls packet.call_id;
           on_reply packet.payload
         | None -> ())
      | Ack -> ())

let on_rx node ~src payload =
  match decode payload with
  | None -> Stats.incr node.stats "starmod.pkt.bad"
  | Some packet ->
    Stats.incr node.stats "starmod.pkt.recv";
    Engine.schedule node.engine ~delay:node.cost.packet_us (fun () ->
        match packet.kind with
        | Ack ->
          let p = peer node src in
          (match p.inflight with
           | Some ob when packet.seq = p.send_seq ->
             Engine.disarm node.engine p.retransmit;
             p.inflight <- None;
             p.send_seq <- (p.send_seq + 1) land 0xFF;
             ob.ob_on_delivered ();
             pump node src
           | Some _ | None -> ())
        | Msg | Reply ->
          let p = peer node src in
          send_ack node ~dst:src ~seq:packet.seq;
          if p.recv_seq = -1 || packet.seq = p.recv_seq then begin
            p.recv_seq <- (packet.seq + 1) land 0xFF;
            deliver node ~src packet
          end)

let create_node ~engine ~bus ~mid ?(cost = default_cost) () =
  let node =
    {
      engine;
      bus;
      mid;
      cost;
      stats = Stats.create ();
      nic = None;
      ports = Hashtbl.create 8;
      peers = Hashtbl.create 8;
      calls = Hashtbl.create 8;
      next_call = 0;
    }
  in
  node.nic <- Some (Nic.attach bus ~mid ~rx:(fun ~src ~broadcast:_ ~ctx:_ payload -> on_rx node ~src payload));
  node

let define_port node ~port handler = Hashtbl.replace node.ports port handler

let sync_call node ~dst ~port payload ~on_reply =
  let call_id = node.next_call in
  node.next_call <- node.next_call + 1;
  Hashtbl.replace node.calls call_id on_reply;
  Stats.incr node.stats "starmod.sync_calls";
  (* user->kernel trap + kernel buffering, then queue for the net process *)
  let delay = node.cost.trap_us + node.cost.buffer_copy_us in
  Engine.schedule node.engine ~delay (fun () ->
      send_packet node ~dst ~kind:Msg ~call_id ~port payload ~on_delivered:(fun () -> ()))

let async_send node ~dst ~port payload ~on_done =
  let call_id = node.next_call in
  node.next_call <- node.next_call + 1;
  Stats.incr node.stats "starmod.async_sends";
  let delay = node.cost.trap_us + node.cost.buffer_copy_us in
  Engine.schedule node.engine ~delay (fun () ->
      send_packet node ~dst ~kind:Msg ~call_id ~port payload ~on_delivered:on_done)
