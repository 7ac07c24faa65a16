module Types = Soda_base.Types
module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Recorder = Soda_obs.Recorder
module Metrics = Soda_obs.Metrics

type error = Out_of_range | Unreachable

let word_bytes = 2

let spec ~pattern ~words =
  let memory = Bytes.make (words * word_bytes) '\000' in
  let spec =
    {
      Sodal.default_spec with
      init = (fun env ~parent:_ -> Sodal.advertise env pattern);
      on_request =
        (fun env info ->
          let addr = info.Sodal.arg in
          let extent_bytes = max info.Sodal.put_size info.Sodal.get_size in
          let in_range =
            addr >= 0 && (addr * word_bytes) + extent_bytes <= Bytes.length memory
          in
          if not in_range then Sodal.reject env
          else if info.Sodal.put_size > 0 && info.Sodal.get_size > 0 then begin
            (* TEST-AND-SET: an EXCHANGE atomically swaps the addressed
               word and returns its previous contents; atomicity is the
               handler invocation's (§6.10: ACCEPT is atomic wrt us). *)
            let old = Bytes.sub memory (addr * word_bytes) info.Sodal.get_size in
            let into = Bytes.create info.Sodal.put_size in
            let status, got = Sodal.accept_current_exchange env ~arg:0 ~into ~data:old in
            match status with
            | Types.Accept_success -> Bytes.blit into 0 memory (addr * word_bytes) got
            | Types.Accept_cancelled | Types.Accept_crashed -> ()
          end
          else if info.Sodal.put_size > 0 then begin
            (* POKE *)
            let into = Bytes.create info.Sodal.put_size in
            let status, got = Sodal.accept_current_put env ~arg:0 ~into in
            match status with
            | Types.Accept_success -> Bytes.blit into 0 memory (addr * word_bytes) got
            | Types.Accept_cancelled | Types.Accept_crashed -> ()
          end
          else begin
            (* PEEK *)
            let data = Bytes.sub memory (addr * word_bytes) info.Sodal.get_size in
            ignore (Sodal.accept_current_get env ~arg:0 ~data)
          end);
    }
  in
  (spec, memory)

let peek env server ~addr ~words =
  let into = Bytes.create (words * word_bytes) in
  let c = Sodal.b_get env server ~arg:addr ~into in
  match c.Sodal.status with
  | Sodal.Comp_ok -> Ok (Bytes.sub into 0 c.Sodal.get_transferred)
  | Sodal.Comp_rejected -> Error Out_of_range
  | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> Error Unreachable

let poke env server ~addr data =
  let c = Sodal.b_put env server ~arg:addr data in
  match c.Sodal.status with
  | Sodal.Comp_ok -> Ok ()
  | Sodal.Comp_rejected -> Error Out_of_range
  | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> Error Unreachable

let encode_word v =
  let b = Bytes.create word_bytes in
  Bytes.set b 0 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 1 (Char.chr (v land 0xFF));
  b

let decode_word b = (Char.code (Bytes.get b 0) lsl 8) lor Char.code (Bytes.get b 1)

let test_and_set env server ~addr value =
  let into = Bytes.create word_bytes in
  let c = Sodal.b_exchange env server ~arg:addr (encode_word value) ~into in
  match c.Sodal.status with
  | Sodal.Comp_ok when c.Sodal.get_transferred = word_bytes -> Ok (decode_word into)
  | Sodal.Comp_ok | Sodal.Comp_rejected -> Error Out_of_range
  | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> Error Unreachable

(* Contended TEST-AND-SET retries back off exponentially (capped, with
   jitter from a split of the engine RNG so co-resident contenders
   desynchronise) instead of hammering the memory server in lockstep.
   With [?timeserver] the wait is a §6.16 alarm-backed sleep — the
   client stays responsive to its handler — otherwise local compute. *)
let lock ?timeserver env server ~addr =
  let rng = Rng.split (Engine.rng (Kernel.engine (Sodal.kernel env))) in
  let metrics = Recorder.metrics (Kernel.recorder (Sodal.kernel env)) in
  let rec go k =
    Metrics.incr metrics "rmr.lock.attempts";
    match test_and_set env server ~addr 1 with
    | Ok 0 -> Ok ()
    | Ok _ ->
      let d = Rng.backoff rng ~base_us:1_000 ~cap_us:64_000 k in
      (match timeserver with
       | Some ts -> Timeserver.sleep env ts ~delay_us:d
       | None -> Sodal.compute env d);
      go (k + 1)
    | Error e -> Error e
  in
  go 0

let unlock env server ~addr =
  match test_and_set env server ~addr 0 with Ok _ -> Ok () | Error e -> Error e
