module Metrics = Soda_obs.Metrics

type t = {
  bus : Bus.t;
  mid : int;
  stats : Metrics.t option;
  mutable crc_drops : int;
  mutable enabled : bool;
}

(* Shared CRC screen: [deliver frame len] is called with the in-place
   payload length after the trailer verified, or len = -1 on mismatch
   handled here. *)
let make ?stats bus ~mid ~deliver =
  let t = { bus; mid; stats; crc_drops = 0; enabled = true } in
  Bus.attach bus ~mid ~rx:(fun frame ->
      if t.enabled then begin
        let len = Crc16.payload_len frame.Frame.wire in
        if len < 0 then begin
          t.crc_drops <- t.crc_drops + 1;
          match t.stats with
          | Some s -> Metrics.incr s "nic.crc_drops"
          | None -> ()
        end
        else deliver frame len
      end);
  t

let attach ?stats bus ~mid ~rx =
  make ?stats bus ~mid ~deliver:(fun frame len ->
      let payload = Bytes.sub frame.Frame.wire 0 len in
      let broadcast =
        match frame.Frame.dst with Frame.Broadcast -> true | Frame.To _ -> false
      in
      rx ~src:frame.Frame.src ~broadcast ~ctx:frame.Frame.ctx payload)

let attach_view ?stats bus ~mid ~rx =
  make ?stats bus ~mid ~deliver:(fun frame len ->
      let broadcast =
        match frame.Frame.dst with Frame.Broadcast -> true | Frame.To _ -> false
      in
      rx ~src:frame.Frame.src ~broadcast ~ctx:frame.Frame.ctx ~wire:frame.Frame.wire
        ~len)

let mid t = t.mid

let send t ?ctx ~dst payload = Bus.send t.bus ?ctx ~src:t.mid ~dst:(Frame.To dst) payload

let broadcast t ?ctx payload = Bus.send t.bus ?ctx ~src:t.mid ~dst:Frame.Broadcast payload

let send_wire t ?ctx ~dst wire = Bus.send_wire t.bus ?ctx ~src:t.mid ~dst:(Frame.To dst) wire

let broadcast_wire t ?ctx wire = Bus.send_wire t.bus ?ctx ~src:t.mid ~dst:Frame.Broadcast wire

let crc_drops t = t.crc_drops

let disable t = t.enabled <- false
let enable t = t.enabled <- true
