module Metrics = Soda_obs.Metrics

type t = {
  bus : Bus.t;
  mid : int;
  crc_slot : Metrics.counter_slot;
  mutable crc_drops : int;
  mutable enabled : bool;
}

let is_broadcast frame = match frame.Frame.dst with Frame.Broadcast -> true | Frame.To _ -> false

(* A unicast frame is the station's from delivery; a broadcast one stays
   the bus's. *)
let release_unicast bus frame =
  if not (is_broadcast frame) then Pool.release (Bus.pool bus) frame.Frame.wire

(* Shared CRC screen: [deliver frame len] is called with the in-place
   payload length after the trailer verified; a frame dropped here goes
   back to the pool. *)
(* Where a station without a registry counts: one slot for all of them,
   which nothing reads, made with the first such station. *)
let unreported = lazy (Metrics.counter_slot (Metrics.create ()) "nic.crc_drops")

let make ?stats bus ~mid ~deliver =
  let crc_slot =
    match stats with
    | Some s -> Metrics.counter_slot s "nic.crc_drops"
    | None -> Lazy.force unreported
  in
  let t = { bus; mid; crc_slot; crc_drops = 0; enabled = true } in
  Bus.attach bus ~mid ~rx:(fun frame ->
      let len = if t.enabled then Crc16.screen frame.Frame.wire ~len:frame.Frame.len else -1 in
      if len >= 0 then deliver frame len
      else begin
        if t.enabled then begin
          t.crc_drops <- t.crc_drops + 1;
          Metrics.bump t.crc_slot
        end;
        release_unicast bus frame
      end);
  t

let attach ?stats bus ~mid ~rx =
  make ?stats bus ~mid ~deliver:(fun frame len ->
      let payload = Bytes.sub frame.Frame.wire 0 len in
      release_unicast bus frame;
      rx ~src:frame.Frame.src ~broadcast:(is_broadcast frame) ~ctx:frame.Frame.ctx payload)

let attach_view ?stats bus ~mid ~rx =
  make ?stats bus ~mid ~deliver:(fun frame len ->
      rx ~src:frame.Frame.src ~broadcast:(is_broadcast frame) ~ctx:frame.Frame.ctx
        ~wire:frame.Frame.wire ~len)

let mid t = t.mid

let send t ?ctx ~dst payload = Bus.send t.bus ?ctx ~src:t.mid ~dst:(Frame.To dst) payload

let broadcast t ?ctx payload = Bus.send t.bus ?ctx ~src:t.mid ~dst:Frame.Broadcast payload

let crc_drops t = t.crc_drops

let disable t = t.enabled <- false
let enable t = t.enabled <- true
