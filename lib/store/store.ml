module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Rng = Soda_sim.Rng
module Engine = Soda_sim.Engine
module Kernel = Soda_core.Kernel
module Sodal = Soda_runtime.Sodal
module Nameserver = Soda_facilities.Nameserver
module Recorder = Soda_obs.Recorder
module Metrics = Soda_obs.Metrics
module Event = Soda_obs.Event

let k_rounds = Metrics.counter_key "store.rounds"
let k_retries = Metrics.counter_key "store.retries"
let k_skipped = Metrics.counter_key "store.skipped"
let k_no_quorum = Metrics.counter_key "store.no_quorum"
let k_hedged = Metrics.counter_key "store.hedged"
let k_round_acks = Metrics.histogram_key "store.round.acks"
let k_read_us = Metrics.histogram_key "store.read.us"
let k_write_us = Metrics.histogram_key "store.write.us"
let k_cas_us = Metrics.histogram_key "store.cas.us"

(* ---- replica ----------------------------------------------------------- *)

type replica = {
  cluster : string;
  index : int;
  table : (int, Tag.t * bytes) Hashtbl.t;  (* the replica's stable storage *)
  mutable boots : int;
}

let replica ~cluster ~index = { cluster; index; table = Hashtbl.create 32; boots = 0 }

let incarnations r = r.boots

let peek_replica r ~key = Hashtbl.find_opt r.table key

(* Stable per-(cluster, index) well-known pattern: a store tag in the top
   bits, a cluster hash in the middle, the replica index in the low byte
   (all inside the 40-bit well-known name space). *)
let replica_pattern ~cluster ~index =
  let h = Hashtbl.hash cluster land 0x3FFFFFF in
  Pattern.well_known ((0o5 lsl 37) lor (h lsl 8) lor (index land 0xFF))

let replica_name ~cluster ~index = Printf.sprintf "/store/%s/%d" cluster index

(* Query reply: present(1) tag(8) len(2) value. *)
let encode_query_reply entry =
  match entry with
  | None -> Bytes.make 1 '\000'
  | Some (tag, value) ->
    let len = Bytes.length value in
    let b = Bytes.create (1 + Tag.encoded_size + 2 + len) in
    Bytes.set b 0 '\001';
    Bytes.blit (Tag.encode tag) 0 b 1 Tag.encoded_size;
    Bytes.set b 9 (Char.chr ((len lsr 8) land 0xFF));
    Bytes.set b 10 (Char.chr (len land 0xFF));
    Bytes.blit value 0 b 11 len;
    b

let decode_query_reply b ~len =
  if len < 1 then None
  else if Bytes.get b 0 = '\000' then Some (Tag.zero, None)
  else
    match Tag.decode b ~at:1 with
    | None -> None
    | Some tag ->
      if len < 11 then None
      else begin
        let vlen = (Char.code (Bytes.get b 9) lsl 8) lor Char.code (Bytes.get b 10) in
        if 11 + vlen > len then None else Some (tag, Some (Bytes.sub b 11 vlen))
      end

(* Propagate payload: tag(8) len(2) value. *)
let encode_propagate tag value =
  let len = Bytes.length value in
  let b = Bytes.create (Tag.encoded_size + 2 + len) in
  Bytes.blit (Tag.encode tag) 0 b 0 Tag.encoded_size;
  Bytes.set b 8 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 9 (Char.chr (len land 0xFF));
  Bytes.blit value 0 b 10 len;
  b

let decode_propagate b ~len =
  match Tag.decode b ~at:0 with
  | None -> None
  | Some tag ->
    if len < 10 then None
    else begin
      let vlen = (Char.code (Bytes.get b 8) lsl 8) lor Char.code (Bytes.get b 9) in
      if 10 + vlen > len then None else Some (tag, Bytes.sub b 10 vlen)
    end

(* Keep the incoming pair iff its tag is strictly newer: retries across
   incarnations and duplicated/reordered deliveries are idempotent. *)
let merge r ~key tag value =
  match Hashtbl.find_opt r.table key with
  | Some (cur, _) when Tag.compare cur tag >= 0 -> ()
  | _ -> Hashtbl.replace r.table key (tag, value)

let poke_replica = merge

(* A query or propagate the handler has queued for the task to ACCEPT. *)
type pending = { asker : Types.requester_signature; key : int; put_size : int }

(* Serve one queued request: a propagate is a PUT of a tagged value, a
   query is a GET of the current tag-value for the key. *)
let serve_pending r env p =
  if p.put_size > 0 then begin
    let into = Bytes.create p.put_size in
    let status, got = Sodal.accept_put env p.asker ~arg:0 ~into in
    match status with
    | Types.Accept_success ->
      (match decode_propagate into ~len:got with
       | Some (tag, value) -> merge r ~key:p.key tag value
       | None -> ())
    | Types.Accept_cancelled | Types.Accept_crashed -> ()
  end
  else
    ignore
      (Sodal.accept_get env p.asker ~arg:0
         ~data:(encode_query_reply (Hashtbl.find_opt r.table p.key)))

(* The task ACCEPTs queued requests in arrival order. The handler only
   queues, so it is free again after its context switch instead of
   staying busy through a transfer while the kernel BUSY-NACKs the
   requests that arrive meanwhile. *)
let drain r queue env =
  while true do
    if Queue.is_empty queue then Sodal.idle env else serve_pending r env (Queue.pop queue)
  done

(* The switchboard-registration task of the [~register:true] variant: a
   fresh unique entry point per incarnation, bound under the stable name
   — register on first boot, rebind to reclaim the name from a dead
   incarnation's binding — then the same drain loop. Requests that
   arrive while it binds wait in the queue. *)
let register_task r queue env =
  let unique = Sodal.getuniqueid env in
  Sodal.advertise env unique;
  let sb = Sodal.discover env Nameserver.switchboard_pattern in
  let me = Sodal.server ~mid:(Sodal.my_mid env) ~pattern:unique in
  let name = replica_name ~cluster:r.cluster ~index:r.index in
  let rec bind attempt =
    let outcome =
      match Nameserver.register env sb ~name me with
      | Ok () -> Ok ()
      | Error Nameserver.Already_registered -> Nameserver.rebind env sb ~name me
      | Error _ as e -> e
    in
    match outcome with
    | Ok () -> ()
    | Error _ when attempt < 8 ->
      Sodal.compute env 100_000;
      bind (attempt + 1)
    | Error _ -> ()
  in
  bind 1;
  drain r queue env

let replica_spec ?(register = false) r =
  let pattern = replica_pattern ~cluster:r.cluster ~index:r.index in
  (* per incarnation: a reboot's requests died with the old kernel *)
  let queue = Queue.create () in
  {
    Sodal.default_spec with
    init =
      (fun env ~parent:_ ->
        r.boots <- r.boots + 1;
        Sodal.advertise env pattern);
    on_request =
      (fun env info ->
        let key = info.Sodal.arg and put_size = info.Sodal.put_size in
        let get_size = info.Sodal.get_size in
        if key >= 0 && (put_size > 0) <> (get_size > 0) then
          Queue.push { asker = info.Sodal.asker; key; put_size } queue
        else Sodal.reject env);
    task = (if register then register_task r queue else drain r queue);
  }

(* ---- client ------------------------------------------------------------ *)

type t = {
  cluster : string;
  n : int;
  q : int;
  replicas : Types.server_signature array;
  (* [Some f]: switchboard-backed; re-resolve replica [i] after it
     answers UNADVERTISED (its incarnation — and unique pattern — changed). *)
  resolve : (int -> Types.server_signature option) option;
  rng : Rng.t;
  (* [in_flight.(i)]: this handle's last request to replica [i] has not
     completed yet (it may belong to an earlier round or operation). *)
  in_flight : bool array;
  (* The answer order: the replicas that acked this handle's last round,
     in the order they acked, then the rest in their earlier order
     (initially [0..n-1]). Rounds launch in this order. *)
  order : int array;
  stats : Metrics.t;  (* the recorder's *)
}

(* Client retry policy: values up to [max_value] bytes, [attempts] quorum
   rounds per phase, capped jittered backoff between rounds, and up to
   [resolve_attempts] switchboard lookups per replica at connect. *)
let max_value = 512
let attempts = 10
let backoff_base_us = 20_000
let backoff_cap_us = 500_000
let resolve_attempts = 20

type error = No_quorum

let recorder env = Kernel.recorder (Sodal.kernel env)

let tracing env = Recorder.tracing (recorder env)

(* Store events are stamped with the ambient operation span (set by
   [with_op_ctx] below), tying phase/retry/complete events into the same
   causal tree as the quorum fan-out they describe. Callers test
   [tracing] first, so an untraced run builds no event. *)
let emit env kind =
  Recorder.emit (recorder env)
    ?ctx:(Kernel.causal_parent (Sodal.kernel env))
    ~time_us:(Sodal.now env) ~mid:(Sodal.my_mid env) kind

(* One causal root per client-visible store operation: every REQUEST the
   op traps — quorum fan-out, backoff retries, failover re-sends — minted
   while it runs becomes a child of this root, so the whole cross-node
   operation reconstructs as one tree. The previous ambient parent is
   restored on exit (ops can nest under a larger operation). *)
let with_op_ctx env f =
  let kernel = Sodal.kernel env in
  let saved = Kernel.causal_parent kernel in
  (match Kernel.mint_causal_root kernel with
   | Some _ as ctx -> Kernel.set_causal_parent kernel ctx
   | None -> ());
  Fun.protect ~finally:(fun () -> Kernel.set_causal_parent kernel saved) f

let metrics env = Recorder.metrics (recorder env)

let make_handle env ~cluster ~replicas ~resolve =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Store.handle: no replicas";
  let stats = metrics env in
  (* the round counters and histogram are listed from the first handle *)
  List.iter
    (fun k -> Metrics.count_by stats k 0)
    [ k_rounds; k_retries; k_skipped; k_no_quorum; k_hedged ];
  Metrics.declare stats k_round_acks;
  {
    cluster;
    n;
    q = (n / 2) + 1;
    replicas;
    resolve;
    rng = Rng.split (Engine.rng (Kernel.engine (Sodal.kernel env)));
    in_flight = Array.make n false;
    order = Array.init n Fun.id;
    stats;
  }

let handle env ~cluster ~mids =
  let replicas =
    Array.of_list
      (List.mapi
         (fun i mid -> Sodal.server ~mid ~pattern:(replica_pattern ~cluster ~index:i))
         mids)
  in
  make_handle env ~cluster ~replicas ~resolve:None

let connect env ~cluster ~n () =
  let sb = Sodal.discover env Nameserver.switchboard_pattern in
  let lookup i = Nameserver.lookup env sb ~name:(replica_name ~cluster ~index:i) in
  let rec resolve_one i attempt =
    match lookup i with
    | Ok signature -> Ok signature
    | Error _ as e ->
      if attempt >= resolve_attempts then e
      else begin
        (* replicas register asynchronously after boot; give them time *)
        Sodal.compute env 100_000;
        resolve_one i (attempt + 1)
      end
  in
  let rec resolve_all i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else
      match resolve_one i 1 with
      | Ok signature -> resolve_all (i + 1) (signature :: acc)
      | Error e -> Error e
  in
  match resolve_all 0 [] with
  | Error e -> Error e
  | Ok replicas ->
    let re_resolve i = match lookup i with Ok s -> Some s | Error _ -> None in
    Ok (make_handle env ~cluster ~replicas ~resolve:(Some re_resolve))

(* Issue a non-blocking REQUEST, idling while the kernel is at its
   MAXREQUESTS limit (a slot frees on any completion interrupt). *)
let rec submit env f =
  match f () with
  | tid -> tid
  | exception Sodal.Too_many_requests ->
    Sodal.idle env;
    submit env f

let free h =
  Array.fold_left (fun k busy -> if busy then k else k + 1) 0 h.in_flight

(* Move the replicas in [acks] (newest first) to the front of the answer
   order, first answerer first; the rest keep their relative order. *)
let reorder h acks =
  let answered i = List.exists (fun (j, _) -> j = i) acks in
  let back = ref (h.n - 1) in
  for k = h.n - 1 downto 0 do
    let i = h.order.(k) in
    if not (answered i) then begin
      h.order.(!back) <- i;
      decr back
    end
  done;
  List.iter
    (fun (i, _) ->
      h.order.(!back) <- i;
      decr back)
    acks

(* One quorum round. Replicas are tried in the answer order, skipping
   any that still hold a request of this handle (a laggard: queued at a
   slow replica, or retransmitting into a crashed one towards its crash
   verdict), so a handle has at most [n] requests outstanding and a dead
   replica holds one of them, not one per round. A propagate launches to
   every free replica: its extra acks keep replicas current, so reads
   write back less often. A query launches to exactly [q], since any
   majority serves an ABD round and each extra query costs frames and a
   replica turn the answers we do use would queue behind; a query that
   resolves without an ack is replaced at once by the next free replica.
   When [q - 1] acks are in at [t1], [t1 - t0] after the round started,
   and the last one has not come within as long again, the round hedges
   once with one more replica: a silent replica first in the order would
   otherwise hold the round until its crash verdict.
   The round returns as soon as [q] acks are in, or when every launched
   request has resolved and no free replica is left to try. Laggards keep
   their callbacks and resolve harmlessly later: that is the RPC
   facility's skip-after-verdict failover discipline, not a timeout.
   With fewer than [q] replicas free the round idles until [q] are. *)
let round env h ~phase ~launch ~decode =
  while free h < h.q do
    Sodal.idle env
  done;
  let t0 = Sodal.now env in
  let acks = ref [] in
  let acked = ref 0 in
  let failed = ref 0 in
  let launched = ref 0 in
  let unadvertised = ref [] in
  let t1 = ref (-1) in
  let cursor = ref 0 in
  let rec launch_next () =
    !cursor < h.n
    &&
    let i = h.order.(!cursor) in
    incr cursor;
    if h.in_flight.(i) then begin
      Metrics.count h.stats k_skipped;
      launch_next ()
    end
    else begin
      let tid = submit env (fun () -> launch i) in
      h.in_flight.(i) <- true;
      incr launched;
      Sodal.on_completion_of env tid (fun c ->
          h.in_flight.(i) <- false;
          match decode i c with
          | Some v ->
            acks := (i, v) :: !acks;
            incr acked;
            if !acked = h.q - 1 then t1 := Sodal.now env
          | None ->
            if c.Sodal.status = Sodal.Comp_unadvertised then
              unadvertised := i :: !unadvertised;
            incr failed);
      true
    end
  in
  (* how many launched requests that have not failed the round keeps
     out, each of which may still ack; the hedge raises a query's [q]
     to [q + 1] *)
  let want = ref (match phase with Event.Query -> h.q | Event.Propagate -> h.n) in
  let top_up () =
    while !launched - !failed < !want && launch_next () do
      ()
    done
  in
  top_up ();
  while !acked < h.q && !acked + !failed < !launched do
    (if phase = Event.Query && !want = h.q && !t1 >= 0 then begin
       let now = Sodal.now env in
       let deadline = !t1 + (!t1 - t0) in
       if now < deadline then Sodal.idle_for env (deadline - now)
       else begin
         incr want;
         if launch_next () then Metrics.count h.stats k_hedged
       end
     end
     else Sodal.idle env);
    top_up ()
  done;
  reorder h !acks;
  (List.rev !acks, !acked, !unadvertised)

(* Retry wrapper: capped exponential backoff with jitter from the
   handle's split RNG, re-resolving switchboard bindings for replicas
   that answered UNADVERTISED (their incarnation changed). *)
let phase env h ~op ~phase ~key ~launch ~decode =
  let rec attempt k =
    let t0 = Sodal.now env in
    let acks, acked, unadvertised = round env h ~phase ~launch ~decode in
    Metrics.count h.stats k_rounds;
    Metrics.sample h.stats k_round_acks acked;
    if tracing env then
      emit env
        (Event.Store_phase
           { op; phase; key; acks = acked; quorum = h.q; elapsed_us = Sodal.now env - t0 });
    if acked >= h.q then Ok acks
    else if k >= attempts then begin
      Metrics.count h.stats k_no_quorum;
      Error No_quorum
    end
    else begin
      Metrics.count h.stats k_retries;
      if tracing env then emit env (Event.Store_retry { op; phase; key; attempt = k });
      (match h.resolve with
       | Some resolve ->
         List.iter
           (fun i ->
             match resolve i with
             | Some signature -> h.replicas.(i) <- signature
             | None -> ())
           unadvertised
       | None -> ());
      Sodal.compute env
        (Rng.backoff h.rng ~base_us:backoff_base_us ~cap_us:backoff_cap_us (k - 1));
      attempt (k + 1)
    end
  in
  attempt 1

(* Phase 1: GET the per-replica (tag, value) for [key] from a majority. *)
let query_phase env h ~op ~key =
  (* filled at launch: a replica not asked needs no buffer *)
  let buffers = Array.make h.n Bytes.empty in
  phase env h ~op ~phase:Event.Query ~key
    ~launch:(fun i ->
      let into = Bytes.create (11 + max_value) in
      buffers.(i) <- into;
      Sodal.get env h.replicas.(i) ~arg:key ~into)
    ~decode:(fun i c ->
      match c.Sodal.status with
      | Sodal.Comp_ok -> decode_query_reply buffers.(i) ~len:c.Sodal.get_transferred
      | Sodal.Comp_rejected | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> None)

(* Phase 2: PUT the tagged value to a majority. *)
let propagate_phase env h ~op ~key tag value =
  let payload = encode_propagate tag value in
  phase env h ~op ~phase:Event.Propagate ~key
    ~launch:(fun i -> Sodal.put env h.replicas.(i) ~arg:key payload)
    ~decode:(fun _ c ->
      match c.Sodal.status with
      | Sodal.Comp_ok -> Some ()
      | Sodal.Comp_rejected | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> None)

let max_of_acks acks =
  List.fold_left
    (fun (best_tag, best_v) (_, (tag, v)) ->
      if Tag.compare tag best_tag > 0 then (tag, v) else (best_tag, best_v))
    (Tag.zero, None) acks

(* [metric] is the op's latency histogram. *)
let finish env ~op ~metric ~key ~t0 ~rounds result =
  let elapsed = Sodal.now env - t0 in
  Metrics.sample (metrics env) metric elapsed;
  if tracing env then
    emit env
      (Event.Store_complete
         { op; key; ok = Result.is_ok result; rounds; elapsed_us = elapsed });
  result

let read env h ~key =
  with_op_ctx env @@ fun () ->
  let finish =
    finish env ~op:Event.Op_read ~metric:k_read_us ~key ~t0:(Sodal.now env)
  in
  match query_phase env h ~op:Event.Op_read ~key with
  | Error No_quorum -> finish ~rounds:1 (Error No_quorum)
  | Ok acks ->
    let tag, value = max_of_acks acks in
    if Tag.compare tag Tag.zero = 0 then
      (* a majority never saw a write: no completed write exists *)
      finish ~rounds:1 (Ok None)
    else begin
      let at_max =
        List.length (List.filter (fun (_, (t, _)) -> Tag.compare t tag = 0) acks)
      in
      let v = match value with Some v -> v | None -> Bytes.empty in
      if at_max >= h.q then
        (* the query round itself proved the tag is on a majority *)
        finish ~rounds:1 (Ok (Some v))
      else
        match propagate_phase env h ~op:Event.Op_read ~key tag v with
        | Ok _ -> finish ~rounds:2 (Ok (Some v))
        | Error No_quorum -> finish ~rounds:2 (Error No_quorum)
    end

(* A longer value would overflow every later query reply's buffer and
   leave the key unreadable, so it is refused before any round. *)
let check_value fn value =
  if Bytes.length value > max_value then
    invalid_arg
      (Printf.sprintf "Store.%s: %d-byte value exceeds max_value (%d bytes)" fn
         (Bytes.length value) max_value)

let write env h ~key value =
  check_value "write" value;
  with_op_ctx env @@ fun () ->
  let finish =
    finish env ~op:Event.Op_write ~metric:k_write_us ~key ~t0:(Sodal.now env)
  in
  match query_phase env h ~op:Event.Op_write ~key with
  | Error No_quorum -> finish ~rounds:1 (Error No_quorum)
  | Ok acks ->
    let max_tag, _ = max_of_acks acks in
    let tag = Tag.next max_tag ~wid:(Sodal.my_mid env) in
    (match propagate_phase env h ~op:Event.Op_write ~key tag value with
     | Ok _ -> finish ~rounds:2 (Ok ())
     | Error No_quorum -> finish ~rounds:2 (Error No_quorum))

let cas env h ~key ~expect value =
  check_value "cas" value;
  with_op_ctx env @@ fun () ->
  let finish =
    finish env ~op:Event.Op_cas ~metric:k_cas_us ~key ~t0:(Sodal.now env)
  in
  match query_phase env h ~op:Event.Op_cas ~key with
  | Error No_quorum -> finish ~rounds:1 (Error No_quorum)
  | Ok acks ->
    let max_tag, current = max_of_acks acks in
    let current =
      if Tag.compare max_tag Tag.zero = 0 then None
      else Some (match current with Some v -> v | None -> Bytes.empty)
    in
    if current <> expect then finish ~rounds:1 (Ok false)
    else begin
      let tag = Tag.next max_tag ~wid:(Sodal.my_mid env) in
      match propagate_phase env h ~op:Event.Op_cas ~key tag value with
      | Ok _ -> finish ~rounds:2 (Ok true)
      | Error No_quorum -> finish ~rounds:2 (Error No_quorum)
    end
