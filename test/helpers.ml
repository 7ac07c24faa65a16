(* Shared test utilities. *)

module Engine = Soda_sim.Engine
module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal

(* Every qcheck property starts from one seed: [QCHECK_SEED] when it is
   set (the nightly jobs set one per seed band), else
   [default_qcheck_seed], so a run without it draws the same cases every
   time and its result is a function of the code. 1984 is the year of
   the SODA paper. *)
let default_qcheck_seed = 1984

let qcheck_seed =
  lazy
    (let seed =
       Option.value ~default:default_qcheck_seed
         (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
     in
     Printf.printf "qcheck random seed: %d\n%!" seed;
     seed)

(* [QCheck_alcotest.to_alcotest] from that seed: each property gets a
   fresh state made from it, as qcheck's own default does. *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force qcheck_seed |]) t

let bytes_of_string = Bytes.of_string
let string_of_bytes b = Bytes.to_string b

(* Data views, for the transaction records and decoded packets. *)
let view b : Soda_proto.Wire.view =
  if Bytes.length b = 0 then Soda_proto.Wire.no_data else { buf = b; off = 0; len = Bytes.length b }

let string_of_view (v : Soda_proto.Wire.view) = Bytes.sub_string v.buf v.off v.len

(* [body] with [f] applied to its data field, if it has one. *)
let map_data f (body : _ Soda_proto.Wire.body_of) : _ Soda_proto.Wire.body_of =
  match body with
  | Request r ->
    Request
      { tid = r.tid; pattern = r.pattern; arg = r.arg; put_size = r.put_size;
        get_size = r.get_size; data = f r.data; retry = r.retry }
  | Accept a ->
    Accept
      { tid = a.tid; arg = a.arg; put_transferred = a.put_transferred;
        need_put_data = a.need_put_data; data = f a.data }
  | Put_data { tid; data } -> Put_data { tid; data = f data }
  | Ack -> Ack
  | Busy { tid } -> Busy { tid }
  | Error { tid; code } -> Error { tid; code }
  | Cancel_request { tid } -> Cancel_request { tid }
  | Cancel_reply { tid; ok } -> Cancel_reply { tid; ok }
  | Probe { tid } -> Probe { tid }
  | Probe_reply { tid; alive } -> Probe_reply { tid; alive }
  | Discover { tid; pattern } -> Discover { tid; pattern }
  | Discover_reply { tid } -> Discover_reply { tid }

(* A decoded packet with its data views read out, to compare with the
   packet that was encoded. *)
let read_out (p : Soda_proto.Wire.rx) : Soda_proto.Wire.t =
  { p with body = map_data (fun v -> Bytes.of_string (string_of_view v)) p.body }

(* A network with [n] nodes, mids 0..n-1. *)
let make_net ?(seed = 7) ?(cost = Cost.default) ?trace n =
  let net = Network.create ~seed ~cost ?trace () in
  let kernels = List.init n (fun mid -> Network.add_node net ~mid) in
  (net, kernels)

(* Run until quiescent or [horizon] simulated seconds. *)
let run ?(horizon = 300.0) net =
  ignore (Network.run ~until:(int_of_float (horizon *. 1e6)) net)

let check_eventually net ~horizon flag msg =
  run ~horizon net;
  Alcotest.(check bool) msg true !flag

(* A reference for Soda_sim.Engine's timers, kept deliberately naive: one
   sorted list of (time, id, callback), a set of cancelled ids, and
   timers that are a schedule plus a cancel. Ids are numbered exactly as
   the engine numbers them (every schedule, fresh-id arm and reservation
   takes the next), so both run the same program in the same order.
   test_sim.ml drives both over random programs and requires identical
   (time, label) firing logs and final clocks. *)
module Ref_engine = struct
  type t = {
    mutable clock : int;
    mutable next_id : int;
    mutable events : (int * int * (unit -> unit)) list;  (* ascending (time, id) *)
    cancelled : (int, unit) Hashtbl.t;
  }

  type timer = { fn : unit -> unit; mutable shot : int option }

  let create () = { clock = 0; next_id = 0; events = []; cancelled = Hashtbl.create 16 }

  let now t = t.clock

  let reserve t =
    let id = t.next_id in
    t.next_id <- id + 1;
    id

  let schedule_at t ~time ~id fn =
    let rec insert = function
      | [] -> [ (time, id, fn) ]
      | ((time', id', _) as e) :: rest ->
        if time < time' || (time = time' && id < id') then (time, id, fn) :: e :: rest
        else e :: insert rest
    in
    t.events <- insert t.events

  let schedule t ~delay fn = schedule_at t ~time:(t.clock + delay) ~id:(reserve t) fn

  let cancel t id = Hashtbl.replace t.cancelled id ()

  let timer _t fn = { fn; shot = None }

  let disarm t tm =
    match tm.shot with
    | Some id ->
      cancel t id;
      tm.shot <- None
    | None -> ()

  let arm_at t tm ~time ~id =
    if tm.shot <> Some id then begin
      disarm t tm;
      tm.shot <- Some id;
      schedule_at t ~time ~id (fun () ->
          tm.shot <- None;
          tm.fn ())
    end

  let arm t tm ~delay = arm_at t tm ~time:(t.clock + delay) ~id:(reserve t)

  let rec run t =
    match t.events with
    | [] -> t.clock
    | (time, id, fn) :: rest ->
      t.events <- rest;
      if Hashtbl.mem t.cancelled id then Hashtbl.remove t.cancelled id
      else begin
        t.clock <- time;
        fn ()
      end;
      run t
end

(* The structure-of-arrays swap heap that Soda_sim.Heap replaced, kept as
   a differential oracle: a swap of three parallel arrays per level, the
   values moving with their keys. test_sim.ml drives both over random
   interleavings of pushes and pops with many equal keys and requires the
   same (key, seq, value) sequence. *)
module Ref_heap = struct
  type 'a t = {
    mutable keys : int array;
    mutable seqs : int array;
    mutable vals : 'a array;
    mutable size : int;
    filler : 'a;
  }

  let create ~filler = { keys = [||]; seqs = [||]; vals = [||]; size = 0; filler }

  let length heap = heap.size

  let less heap i j =
    let ki = heap.keys.(i) and kj = heap.keys.(j) in
    ki < kj || (ki = kj && heap.seqs.(i) < heap.seqs.(j))

  let grow heap =
    let capacity = Array.length heap.vals in
    if heap.size = capacity then begin
      let next = if capacity = 0 then 64 else capacity * 2 in
      let keys = Array.make next 0 in
      let seqs = Array.make next 0 in
      let vals = Array.make next heap.filler in
      Array.blit heap.keys 0 keys 0 heap.size;
      Array.blit heap.seqs 0 seqs 0 heap.size;
      Array.blit heap.vals 0 vals 0 heap.size;
      heap.keys <- keys;
      heap.seqs <- seqs;
      heap.vals <- vals
    end

  let swap heap i j =
    let k = heap.keys.(i) in
    heap.keys.(i) <- heap.keys.(j);
    heap.keys.(j) <- k;
    let s = heap.seqs.(i) in
    heap.seqs.(i) <- heap.seqs.(j);
    heap.seqs.(j) <- s;
    let v = heap.vals.(i) in
    heap.vals.(i) <- heap.vals.(j);
    heap.vals.(j) <- v

  let rec sift_up heap i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less heap i parent then begin
        swap heap i parent;
        sift_up heap parent
      end
    end

  let rec sift_down heap i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < heap.size && less heap left !smallest then smallest := left;
    if right < heap.size && less heap right !smallest then smallest := right;
    if !smallest <> i then begin
      swap heap i !smallest;
      sift_down heap !smallest
    end

  let push heap ~key ~seq value =
    grow heap;
    let i = heap.size in
    heap.keys.(i) <- key;
    heap.seqs.(i) <- seq;
    heap.vals.(i) <- value;
    heap.size <- heap.size + 1;
    sift_up heap i

  let pop_min heap =
    if heap.size = 0 then None
    else begin
      let key = heap.keys.(0) and seq = heap.seqs.(0) and value = heap.vals.(0) in
      let last = heap.size - 1 in
      heap.size <- last;
      heap.vals.(0) <- heap.vals.(last);
      heap.vals.(last) <- heap.filler;
      if last > 0 then begin
        heap.keys.(0) <- heap.keys.(last);
        heap.seqs.(0) <- heap.seqs.(last);
        sift_down heap 0
      end;
      Some (key, seq, value)
    end
end

(* The seed's list-based broadcast bus, kept verbatim as a differential
   oracle for the array/hashtable-backed Soda_net.Bus: same config record,
   same fault RNG draw order (jitter at send, loss/corruption per matching
   delivery, duplicate slack after jitter), same delivery-time partition
   mask, same ascending-mid delivery order. test_scale.ml drives both
   implementations over random topologies and schedules on same-seed
   engines and requires identical (receiver, time, bytes) delivery logs. *)
module Ref_bus = struct
  module Bus = Soda_net.Bus
  module Rng = Soda_sim.Rng

  type frame = { src : int; broadcast : bool; dst : int; wire : bytes }

  type t = {
    engine : Engine.t;
    mutable config : Bus.config;
    stations : (int, frame -> unit) Hashtbl.t;
    mutable busy_until : int;
    fault_rng : Rng.t;
    mutable partition : (int list * int list) option;
    mutable duplicate_pending : int;
    mutable jitter : (int * int) option;
  }

  let create ?(config = Bus.default_config) engine =
    {
      engine;
      config;
      stations = Hashtbl.create 16;
      busy_until = 0;
      fault_rng = Rng.split (Engine.rng engine);
      partition = None;
      duplicate_pending = 0;
      jitter = None;
    }

  let set_loss_rate t rate = t.config <- { t.config with Bus.loss_rate = rate }

  let set_corruption_rate t rate =
    t.config <- { t.config with Bus.corruption_rate = rate }

  let set_partition t (group_a, group_b) = t.partition <- Some (group_a, group_b)
  let heal t = t.partition <- None

  let separated t a b =
    match t.partition with
    | None -> false
    | Some (ga, gb) ->
      (List.mem a ga && List.mem b gb) || (List.mem a gb && List.mem b ga)

  let duplicate_next ?(count = 1) t = t.duplicate_pending <- t.duplicate_pending + count

  let set_delay_jitter t ~min_us ~max_us =
    t.jitter <- (if max_us = 0 then None else Some (min_us, max_us))

  let transmission_time_us t ~payload_bytes =
    let bytes = payload_bytes + t.config.Bus.frame_overhead_bytes + 2 in
    let bits = bytes * 8 in
    (bits * 1_000_000 + t.config.Bus.bandwidth_bps - 1) / t.config.Bus.bandwidth_bps

  let attach t ~mid ~rx = Hashtbl.replace t.stations mid rx

  let corrupt t wire =
    let copy = Bytes.copy wire in
    let idx = Rng.int t.fault_rng (Bytes.length copy) in
    let byte = Char.code (Bytes.get copy idx) in
    Bytes.set copy idx (Char.chr (byte lxor (1 + Rng.int t.fault_rng 255)));
    copy

  let deliver t frame =
    let deliver_to mid rx =
      if mid <> frame.src && (frame.broadcast || frame.dst = mid) then begin
        if separated t frame.src mid then ()
        else if Rng.chance t.fault_rng t.config.Bus.loss_rate then ()
        else begin
          let frame =
            if Rng.chance t.fault_rng t.config.Bus.corruption_rate then
              { frame with wire = corrupt t frame.wire }
            else frame
          in
          rx frame
        end
      end
    in
    Hashtbl.fold (fun mid rx acc -> (mid, rx) :: acc) t.stations []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (mid, rx) -> deliver_to mid rx)

  let send t ~src ~broadcast ~dst payload =
    let wire = Soda_net.Crc16.append payload in
    let frame = { src; broadcast; dst; wire } in
    let now = Engine.now t.engine in
    let start = max now t.busy_until in
    let tx = transmission_time_us t ~payload_bytes:(Bytes.length payload) in
    t.busy_until <- start + tx;
    let jitter_us =
      match t.jitter with
      | None -> 0
      | Some (min_us, max_us) -> min_us + Rng.int t.fault_rng (max_us - min_us + 1)
    in
    let arrival = start + tx + t.config.Bus.propagation_us + jitter_us - now in
    Engine.schedule ~tag:"bus" t.engine ~delay:arrival (fun () -> deliver t frame);
    if t.duplicate_pending > 0 then begin
      t.duplicate_pending <- t.duplicate_pending - 1;
      let slack = 1 + Rng.int t.fault_rng (max 1 t.config.Bus.propagation_us * 4) in
      Engine.schedule ~tag:"bus" t.engine ~delay:(arrival + tx + slack) (fun () ->
          deliver t frame)
    end
end

(* The seed's Buffer-based wire encoder, kept as a differential oracle for
   the zero-copy [Wire.encode_into]: test_wire.ml and test_scale.ml
   require byte-identical frames on random packets of every kind. It
   spells out the header layout itself (kind codes, flag bits, the seq/ack
   extension bytes) rather than reuse the library's. *)
module Ref_wire = struct
  module Wire = Soda_proto.Wire

  let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let put_u16 buf v =
    put_u8 buf (v lsr 8);
    put_u8 buf v

  let put_u32 buf v =
    put_u16 buf (v lsr 16);
    put_u16 buf v

  let put_i32 buf v = put_u32 buf (v land 0xFFFFFFFF)

  let put_u48 buf v =
    put_u16 buf (v lsr 32);
    put_u32 buf v

  let put_data_field buf data =
    put_u32 buf (Bytes.length data);
    Buffer.add_bytes buf data

  let kind_of_body : Wire.body -> int = function
    | Request _ -> 1
    | Accept _ -> 2
    | Put_data _ -> 3
    | Ack -> 4
    | Busy _ -> 5
    | Error _ -> 6
    | Cancel_request _ -> 7
    | Cancel_reply _ -> 8
    | Probe _ -> 9
    | Probe_reply _ -> 10
    | Discover _ -> 11
    | Discover_reply _ -> 12

  let err_to_int : Wire.err_code -> int = function
    | Err_unadvertised -> 0
    | Err_crashed -> 1
    | Err_cancelled -> 2

  (* seq/ack bit 0 in the flags, bits 1-3 in a first extension byte,
     bits 4-7 in a second one flagged by bit 6 of the first *)
  let seq_ext2 (t : Wire.t) =
    let seq_hi = (t.seq land 0xFF) lsr 4 in
    let ack_hi = match t.ack with None -> 0 | Some a -> (a land 0xFF) lsr 4 in
    seq_hi lor (ack_hi lsl 4)

  let seq_ext (t : Wire.t) =
    let seq_mid = (t.seq land 0x0F) lsr 1 in
    let ack_mid = match t.ack with None -> 0 | Some a -> (a land 0x0F) lsr 1 in
    seq_mid lor (ack_mid lsl 3) lor if seq_ext2 t <> 0 then 0x40 else 0

  let flags (t : Wire.t) ~retry ~need_put_data =
    (if t.reliable then 0x01 else 0)
    lor (if t.seq land 1 <> 0 then 0x02 else 0)
    lor (match t.ack with None -> 0 | Some _ -> 0x04)
    lor (match t.ack with Some a when a land 1 <> 0 -> 0x08 | _ -> 0)
    lor (if retry then 0x10 else 0)
    lor (if need_put_data then 0x20 else 0)
    lor (if seq_ext t <> 0 then 0x40 else 0)
    lor if t.run then 0x80 else 0

  let encode (t : Wire.t) =
    let buf = Buffer.create 64 in
    let retry = match t.body with Request { retry; _ } -> retry | _ -> false in
    let need_put_data =
      match t.body with Accept { need_put_data; _ } -> need_put_data | _ -> false
    in
    put_u8 buf (kind_of_body t.body);
    put_u8 buf (flags t ~retry ~need_put_data);
    put_u16 buf t.src;
    if seq_ext t <> 0 then put_u8 buf (seq_ext t);
    if seq_ext2 t <> 0 then put_u8 buf (seq_ext2 t);
    (match t.body with
     | Request { tid; pattern; arg; put_size; get_size; data; retry = _ } ->
       put_u48 buf tid;
       put_u48 buf (Pattern.to_int pattern);
       put_i32 buf arg;
       put_u32 buf put_size;
       put_u32 buf get_size;
       put_data_field buf data
     | Accept { tid; arg; put_transferred; need_put_data = _; data } ->
       put_u48 buf tid;
       put_i32 buf arg;
       put_u32 buf put_transferred;
       put_data_field buf data
     | Put_data { tid; data } ->
       put_u48 buf tid;
       put_data_field buf data
     | Ack -> ()
     | Busy { tid } -> put_u48 buf tid
     | Error { tid; code } ->
       put_u48 buf tid;
       put_u8 buf (err_to_int code)
     | Cancel_request { tid } -> put_u48 buf tid
     | Cancel_reply { tid; ok } ->
       put_u48 buf tid;
       put_u8 buf (if ok then 1 else 0)
     | Probe { tid } -> put_u48 buf tid
     | Probe_reply { tid; alive } ->
       put_u48 buf tid;
       put_u8 buf (if alive then 1 else 0)
     | Discover { tid; pattern } ->
       put_u48 buf tid;
       put_u48 buf (Pattern.to_int pattern)
     | Discover_reply { tid } -> put_u48 buf tid);
    Buffer.to_bytes buf
end

(* A server that advertises [pattern] and accepts every arriving request in
   its handler, echoing [reply] back on GET/EXCHANGE. *)
let echo_server ?(reply = "") kernel pattern =
  Sodal.attach kernel
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env pattern);
      on_request =
        (fun env info ->
          let into = Bytes.create info.Sodal.put_size in
          let data = bytes_of_string reply in
          ignore (Sodal.accept_current_exchange env ~arg:0 ~into ~data));
    }
