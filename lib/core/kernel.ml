module Engine = Soda_sim.Engine
module Delay_line = Soda_sim.Delay_line
module Metrics = Soda_obs.Metrics
module Bus = Soda_net.Bus
module Nic = Soda_net.Nic
module Pattern = Soda_base.Pattern
module Types = Soda_base.Types
module Cost = Soda_base.Cost_model
module Transport = Soda_proto.Transport
module Recorder = Soda_obs.Recorder
module Event = Soda_obs.Event
module Causal = Soda_obs.Causal

type client = {
  invoke_handler : Types.handler_event -> unit;
  on_kill : unit -> unit;
}

type boot_state =
  | No_client  (** boot patterns advertised; waiting for a parent *)
  | Loading of { parent : int; load_pattern : Pattern.t; image : Buffer.t }
  | Running of { load_pattern : Pattern.t option }
      (** [load_pattern] is retained so the parent can kill us (§3.5.2) *)

type pending_request = { pr_get_buffer : bytes }

type t = {
  engine : Engine.t;
  recorder : Recorder.t;
  cost : Cost.t;
  mid : int;
  transport : Transport.t;
  nic : Nic.t;
  mutable mint : Pattern.Mint.t;
  (* advertisement table: both representations kept in sync with config *)
  assoc_table : (int, Pattern.t) Hashtbl.t;  (* pattern int -> pattern *)
  slot_table : Pattern.t option array;  (* 256-slot table of §5.4 *)
  mutable boot_kinds : int list;
  mutable kill_pattern : Pattern.t;
  mutable boot : boot_state;
  mutable client : client option;
  mutable boot_program : (parent:int -> image:bytes -> client) option;
  (* handler state machine *)
  mutable hs_open : bool;
  mutable hs_busy : bool;
  completions : Types.handler_event Queue.t;
  pending : (int, pending_request) Hashtbl.t;  (* tid -> requester bookkeeping *)
  mutable crashed : bool;
  (* A handler invocation waits out one context switch in [invocations]
     (its event); a client's return from an ACCEPT trap waits one beat in
     [returns] (its [on_done], the status and [n] the length). Killing
     the client empties both. *)
  invocations : (unit, Types.handler_event) Delay_line.t;
  returns : (Types.accept_status * int -> unit, Types.accept_status) Delay_line.t;
  context_switch_time : Metrics.counter_slot;
  protocol_time : Metrics.counter_slot;
  (* Ambient causal parent: a client-visible operation (a store op, a
     multi-request facility call) sets this so every REQUEST trapped
     under it becomes a child span of the operation rather than a fresh
     root. [None] (the default): each trap roots its own trace. *)
  mutable causal_parent : Causal.ctx option;
}

let mid t = t.mid
let engine t = t.engine
let cost t = t.cost
let stats t = Transport.stats t.transport
let transport t = t.transport
let recorder t = t.recorder
let client_alive t = t.client <> None

let outstanding t = Hashtbl.length t.pending

(* Typed observability events: guarded so a disabled trace costs one branch. *)
let tracing t = Recorder.tracing t.recorder

let emit_event t ?ctx kind =
  Recorder.emit t.recorder ?ctx ~time_us:(Engine.now t.engine) ~mid:t.mid kind

(* A kernel state change: [peer] is -1 when no other node is involved,
   [n] a detail (0 when unused). *)
let mark t ~peer ~n mark =
  if tracing t then emit_event t (Event.Mark { peer; tid = Event.no_tid; mark; n })

(* ---- causal identity ------------------------------------------------------ *)

let set_causal_parent t ctx = t.causal_parent <- ctx
let causal_parent t = t.causal_parent

(* Root span for a client-visible operation (None unless the network was
   created with causal tracing on). *)
let mint_causal_root t = Recorder.mint_root t.recorder

(* Context for a trap: child of the ambient operation if one is set,
   otherwise a fresh root. Minting is two counter bumps — it never
   schedules engine work, so timing is unchanged by causal tracing. *)
let mint_trap_ctx t =
  match t.causal_parent with
  | Some parent -> Recorder.mint_child t.recorder parent
  | None -> mint_causal_root t

(* Causal identity of a handler event, resolved through the transport's
   per-tid table (requester-side requests and server-side adoptions). *)
let handler_event_ctx t = function
  | Types.Request_arrival { requester = { Types.rq_tid; _ }; _ }
  | Types.Request_completion { requester = { Types.rq_tid; _ }; _ } ->
    Transport.causal_ctx t.transport ~tid:rq_tid
  | _ -> None

(* ---- advertisement table ------------------------------------------------- *)

let advertise_raw t pattern =
  if t.cost.Cost.associative_patterns then
    Hashtbl.replace t.assoc_table (Pattern.to_int pattern) pattern
  else t.slot_table.(Pattern.slot pattern) <- Some pattern

let unadvertise_raw t pattern =
  if t.cost.Cost.associative_patterns then
    Hashtbl.remove t.assoc_table (Pattern.to_int pattern)
  else begin
    match t.slot_table.(Pattern.slot pattern) with
    | Some p when Pattern.equal p pattern -> t.slot_table.(Pattern.slot pattern) <- None
    | Some _ | None -> ()
  end

let advertised_raw t pattern =
  if t.cost.Cost.associative_patterns then
    Hashtbl.mem t.assoc_table (Pattern.to_int pattern)
  else
    match t.slot_table.(Pattern.slot pattern) with
    | Some p -> Pattern.equal p pattern
    | None -> false

let clear_advertisements t =
  Hashtbl.reset t.assoc_table;
  Array.fill t.slot_table 0 (Array.length t.slot_table) None

(* ---- reserved patterns ---------------------------------------------------- *)

let load_pattern t =
  match t.boot with
  | Loading { load_pattern; _ } -> Some load_pattern
  | Running { load_pattern } -> load_pattern
  | No_client -> None

let boot_patterns_active t = match t.boot with No_client -> true | _ -> false

let reserved_pattern_active t pattern =
  (Pattern.equal pattern t.kill_pattern)
  || Pattern.equal pattern Pattern.system_pattern
  || (boot_patterns_active t
      && List.exists (fun k -> Pattern.equal pattern (Pattern.boot_pattern k)) t.boot_kinds)
  || (match load_pattern t with
      | Some lp -> Pattern.equal pattern lp
      | None -> false)

(* ---- handler dispatch ------------------------------------------------------ *)

let handler_available t =
  t.client <> None && t.hs_open && (not t.hs_busy) && Queue.is_empty t.completions

(* Fillers for the empty slots of the delay lines. *)
let no_event = Types.Booting { parent = 0 }
let no_return (_ : Types.accept_status * int) = ()

(* An invocation has waited out its context switch. It was made for the
   client attached now: a kill empties the line. *)
let handler_invoked t =
  let l = t.invocations in
  let event = Delay_line.head_b l in
  Delay_line.next l Delay_line.always;
  match t.client with
  | Some c -> c.invoke_handler event
  | None -> ()

let invoke_client_handler t event =
  match t.client with
  | None -> ()
  | Some _ ->
    t.hs_busy <- true;
    if tracing t then emit_event t ?ctx:(handler_event_ctx t event) Event.Handler_invoke;
    Metrics.bump_by t.context_switch_time t.cost.Cost.context_switch_us;
    ignore (Delay_line.push t.invocations ~fire:handler_invoked t ~n:0 () event)

let rec dispatch_completions t =
  if t.client <> None && t.hs_open && (not t.hs_busy) && not (Queue.is_empty t.completions)
  then begin
    let event = Queue.pop t.completions in
    invoke_client_handler t event
  end
  else if t.client <> None && t.hs_open && not t.hs_busy then
    (* Handler free and no queued completions: a pipeline-buffered request
       may now be delivered (the transport calls back into
       [deliver_request], which invokes the handler). *)
    Transport.flush_buffered t.transport

and enqueue_completion t event =
  Queue.push event t.completions;
  dispatch_completions t

(* ---- internal (reserved-pattern) request handling -------------------------- *)

let encode_load_pattern pattern =
  let v = Pattern.to_int pattern in
  let b = Bytes.create 6 in
  for i = 0 to 5 do
    Bytes.set b i (Char.chr ((v lsr (8 * (5 - i))) land 0xFF))
  done;
  b

let decode_pattern_bytes b =
  if Bytes.length b < 6 then None
  else begin
    let v = ref 0 in
    for i = 0 to 5 do
      v := (!v lsl 8) lor Char.code (Bytes.get b i)
    done;
    match Pattern.of_int !v with p -> Some p | exception Invalid_argument _ -> None
  end

let internal_accept t ~src ~tid ~arg ~get_capacity ~data_out ~k =
  (* Kernel-internal accepts run off the event loop, never the client
     handler; reserved-pattern routines "cannot be impeded by the client
     handler state" (§3.4.3). *)
  Engine.schedule ~tag:"kernel" t.engine ~delay:t.cost.Cost.packet_protocol_us (fun () ->
      Transport.accept t.transport ~requester_mid:src ~requester_tid:tid ~arg
        ~get_capacity ~data_out ~on_done:k)

(* Terminate the client. Client-visible state (handler, advertisements,
   pending completions) vanishes at once; when [drain] is set — DIE and the
   KILL patterns, where the kernel processor itself is healthy — the
   transport keeps running briefly so that owed acknowledgements and
   in-flight completions settle before the reset, as a real kernel would.
   A hardware [crash] resets abruptly. *)
let kill_client t ~readvertise_boot ~drain =
  (match t.client with
   | Some client ->
     t.client <- None;
     client.on_kill ()
   | None -> ());
  t.hs_open <- false;
  t.hs_busy <- false;
  Delay_line.reset t.invocations;
  Delay_line.reset t.returns;
  Queue.clear t.completions;
  Hashtbl.reset t.pending;
  clear_advertisements t;
  let reset () =
    Transport.reset t.transport;
    (* A dead client's TIDs must classify as stale so that late ACCEPTs are
       answered CRASHED rather than CANCELLED (§3.6.1). *)
    t.mint <-
      Pattern.Mint.create ~serial:(t.mid land 0xFF) ~boot_clock:(Engine.now t.engine)
  in
  if drain then begin
    let drain_us = (2 * t.cost.Cost.ack_grace_us) + t.cost.Cost.retrans_interval_us in
    let generation = t.boot in
    Engine.schedule ~tag:"kernel" t.engine ~delay:drain_us (fun () ->
        (* Skip the reset if a new client booted during the drain. *)
        if t.boot == generation || t.boot = No_client then reset ())
  end
  else reset ();
  if readvertise_boot then t.boot <- No_client

let start_loaded_client t ~parent =
  match t.boot with
  | Loading { parent = _; load_pattern; image } ->
    let image_bytes = Buffer.to_bytes image in
    t.boot <- Running { load_pattern = Some load_pattern };
    (* Fresh mint per client incarnation (§5.4): ACCEPTs of pre-boot TIDs
       must be detectably stale. *)
    t.mint <- Pattern.Mint.create ~serial:(t.mid land 0xFF) ~boot_clock:(Engine.now t.engine);
    (match t.boot_program with
     | Some program ->
       let client = program ~parent ~image:image_bytes in
       t.client <- Some client;
       t.hs_open <- true;
       mark t ~peer:parent ~n:(Bytes.length image_bytes) Event.Client_booted;
       invoke_client_handler t (Types.Booting { parent })
     | None ->
       mark t ~peer:parent ~n:0 Event.No_boot_program;
       t.client <- None)
  | No_client | Running _ -> ()

(* Handle a delivered request addressed to a reserved pattern. *)
let handle_reserved t ~src ~tid ~pattern ~arg ~put_size ~get_size =
  let nothing = Bytes.empty in
  if Pattern.equal pattern t.kill_pattern then begin
    mark t ~peer:src ~n:0 Event.Kill_signalled;
    internal_accept t ~src ~tid ~arg:0 ~get_capacity:0 ~data_out:nothing ~k:(fun _ ->
        ());
    (* Give the accept a moment to reach the wire before state is torn
       down; the requester sees completion, then we die. *)
    Engine.schedule ~tag:"kernel" t.engine ~delay:(2 * t.cost.Cost.ack_grace_us) (fun () ->
        kill_client t ~readvertise_boot:true ~drain:true)
  end
  else if Pattern.equal pattern Pattern.system_pattern then begin
    if src <> 0 then
      (* Only machine 0 may alter reserved patterns (§3.5.4); refuse by
         never accepting -- the requester can CANCEL. We REJECT instead so
         the requester learns promptly. *)
      internal_accept t ~src ~tid ~arg:(-1) ~get_capacity:0 ~data_out:nothing ~k:(fun _ -> ())
    else begin
      let buf = Bytes.create (max put_size 6) in
      internal_accept t ~src ~tid ~arg:0 ~get_capacity:put_size ~data_out:nothing
        ~k:(fun outcome ->
          match outcome with
          | Transport.Acc_success data ->
            Bytes.blit data 0 buf 0 (Bytes.length data);
            (match decode_pattern_bytes data, arg with
             | Some p, 1 ->
               (* add boot pattern: encoded as a kind byte in the low bits *)
               t.boot_kinds <- (Pattern.to_int p land 0xFF) :: t.boot_kinds;
               mark t ~peer:src ~n:(Pattern.to_int p land 0xFF) Event.Boot_kind_added
             | Some p, 2 ->
               t.boot_kinds <-
                 List.filter (fun k -> k <> Pattern.to_int p land 0xFF) t.boot_kinds;
               mark t ~peer:src ~n:(Pattern.to_int p land 0xFF) Event.Boot_kind_removed
             | Some p, 3 ->
               t.kill_pattern <- p;
               mark t ~peer:src ~n:0 Event.Kill_pattern_replaced
             | _ -> mark t ~peer:src ~n:0 Event.System_malformed)
          | Transport.Acc_cancelled | Transport.Acc_crashed _ -> ())
    end
  end
  else if
    boot_patterns_active t
    && List.exists (fun k -> Pattern.equal pattern (Pattern.boot_pattern k)) t.boot_kinds
  then begin
    (* GET <mid, BOOT_PATTERN>: withdraw boot patterns, mint a LOAD
       pattern, return it (§3.5.2). *)
    if get_size >= 6 then begin
      let lp = Pattern.Mint.fresh_reserved t.mint in
      t.boot <- Loading { parent = src; load_pattern = lp; image = Buffer.create 256 };
      mark t ~peer:src ~n:(Pattern.to_int lp) Event.Load_granted;
      internal_accept t ~src ~tid ~arg:0 ~get_capacity:0
        ~data_out:(encode_load_pattern lp) ~k:(fun _ -> ())
    end
    else
      internal_accept t ~src ~tid ~arg:(-1) ~get_capacity:0 ~data_out:nothing ~k:(fun _ -> ())
  end
  else begin
    match load_pattern t with
    | Some lp when Pattern.equal pattern lp ->
      (match t.boot with
       | Loading ({ image; _ } as _l) ->
         if put_size > 0 then
           (* PUT: another chunk of the core image. *)
           internal_accept t ~src ~tid ~arg:0 ~get_capacity:put_size ~data_out:nothing
             ~k:(fun outcome ->
               match outcome with
               | Transport.Acc_success data -> Buffer.add_bytes image data
               | Transport.Acc_cancelled | Transport.Acc_crashed _ -> ())
         else begin
           (* SIGNAL: start the new client executing in its handler. *)
           internal_accept t ~src ~tid ~arg:0 ~get_capacity:0 ~data_out:nothing
             ~k:(fun _ -> ());
           Engine.schedule ~tag:"kernel" t.engine ~delay:t.cost.Cost.context_switch_us (fun () ->
               start_loaded_client t ~parent:src)
         end
       | Running _ ->
         if put_size = 0 && get_size = 0 then begin
           (* Second SIGNAL on the load pattern kills the child (§3.5.2). *)
           mark t ~peer:src ~n:1 Event.Kill_signalled;
           internal_accept t ~src ~tid ~arg:0 ~get_capacity:0 ~data_out:nothing
             ~k:(fun _ -> ());
           Engine.schedule ~tag:"kernel" t.engine ~delay:(2 * t.cost.Cost.ack_grace_us) (fun () ->
               kill_client t ~readvertise_boot:true ~drain:true)
         end
         else
           internal_accept t ~src ~tid ~arg:(-1) ~get_capacity:0 ~data_out:nothing
             ~k:(fun _ -> ())
       | No_client -> ())
    | Some _ | None -> ()
  end

(* ---- transport callbacks ---------------------------------------------------- *)

let deliver_request t ~src ~tid ~pattern ~arg ~put_size ~get_size =
  if t.crashed then `Busy
  else if
    (* The SYSTEM operation may install any pattern as the kill action
       (§3.5.4), so the dispatch matches the current kill pattern by value,
       not only by the reserved bit. *)
    Pattern.is_reserved pattern || Pattern.equal pattern t.kill_pattern
  then begin
    if reserved_pattern_active t pattern then begin
      (* Reserved patterns bypass the client handler entirely. *)
      Engine.schedule ~tag:"kernel" t.engine ~delay:0 (fun () ->
          handle_reserved t ~src ~tid ~pattern ~arg ~put_size ~get_size);
      `Deliver
    end
    else `Unadvertised
  end
  else if not (advertised_raw t pattern) then `Unadvertised
  else if handler_available t then begin
    invoke_client_handler t
      (Types.Request_arrival
         { requester = { Types.rq_mid = src; rq_tid = tid }; pattern; arg; put_size; get_size });
    `Deliver
  end
  else `Busy

let complete_request t ~tid completion =
  match Hashtbl.find t.pending tid with
  | exception Not_found -> ()
  | pr ->
    Hashtbl.remove t.pending tid;
    let requester = { Types.rq_mid = t.mid; rq_tid = tid } in
    let event =
      match completion with
      | Transport.Comp_accepted { arg; put_transferred; get_data; _ } ->
        let len = min (Bytes.length get_data) (Bytes.length pr.pr_get_buffer) in
        Bytes.blit get_data 0 pr.pr_get_buffer 0 len;
        Types.Request_completion
          { requester; status = Types.Completed; arg; put_transferred; get_transferred = len }
      | Transport.Comp_unadvertised ->
        Types.Request_completion
          { requester; status = Types.Unadvertised; arg = 0; put_transferred = 0;
            get_transferred = 0 }
      | Transport.Comp_crashed ->
        Types.Request_completion
          { requester; status = Types.Crashed; arg = 0; put_transferred = 0;
            get_transferred = 0 }
      | Transport.Comp_discovered mids ->
        (* DISCOVER is a GET: matching mids land in the get buffer as
           16-bit big-endian words (§3.4.4). *)
        let capacity = Bytes.length pr.pr_get_buffer / 2 in
        let mids = List.filteri (fun i _ -> i < capacity) mids in
        List.iteri
          (fun i m ->
            Bytes.set pr.pr_get_buffer (2 * i) (Char.chr ((m lsr 8) land 0xFF));
            Bytes.set pr.pr_get_buffer ((2 * i) + 1) (Char.chr (m land 0xFF)))
          mids;
        Types.Request_completion
          { requester; status = Types.Completed; arg = List.length mids; put_transferred = 0;
            get_transferred = 2 * List.length mids }
    in
    enqueue_completion t event

(* The return from the ACCEPT trap is not instantaneous: the client is
   unblocked a beat after the data exchange completes, so a request
   arriving at that exact instant still finds the handler BUSY (this is
   what produces the paper's BUSY-NACK traces, §5.2.3). The cost is part
   of the accept trap overhead charged by the runtime. *)
let accept_return_us = 100

let accept_returned t =
  let l = t.returns in
  let on_done = Delay_line.head_a l and status = Delay_line.head_b l and len = Delay_line.head_n l in
  Delay_line.next l Delay_line.always;
  on_done (status, len)

let classify_unknown_tid t tid =
  let serial = (tid lsr 32) land 0xFF in
  let counter = tid land 0xFFFFFFFF in
  if
    serial = t.mid land 0xFF
    && counter >= Pattern.Mint.boot_floor t.mint
    && counter < Pattern.Mint.ceiling t.mint
  then `Completed
  else `Stale

(* ---- construction ------------------------------------------------------------ *)

let create ~engine ~bus ~recorder ~cost ~mid ~boot_kinds =
  let transport = Transport.create ~engine ~bus ~mid ~cost ~recorder in
  let nic = Transport.attach_nic transport in
  let stats = Transport.stats transport in
  let t =
    {
      engine;
      recorder;
      cost;
      mid;
      transport;
      nic;
      mint = Pattern.Mint.create ~serial:(mid land 0xFF) ~boot_clock:0;
      assoc_table = Hashtbl.create 32;
      slot_table = Array.make 256 None;
      boot_kinds;
      kill_pattern = Pattern.kill_pattern;
      boot = No_client;
      client = None;
      boot_program = None;
      hs_open = false;
      hs_busy = false;
      completions = Queue.create ();
      pending = Hashtbl.create 16;
      crashed = false;
      invocations =
        Delay_line.create ~tag:"kernel" engine ~delay:cost.Cost.context_switch_us
          ~fill_a:() ~fill_b:no_event;
      returns =
        Delay_line.create ~tag:"kernel" engine ~delay:accept_return_us ~fill_a:no_return
          ~fill_b:Types.Accept_cancelled;
      context_switch_time = Metrics.counter_slot stats (Cost.label Cost.Context_switch);
      protocol_time = Metrics.counter_slot stats (Cost.label Cost.Protocol);
      causal_parent = None;
    }
  in
  Transport.set_callbacks transport
    {
      Transport.deliver_request =
        (fun ~src ~tid ~pattern ~arg ~put_size ~get_size ->
          deliver_request t ~src ~tid ~pattern ~arg ~put_size ~get_size);
      complete_request = (fun ~tid completion -> complete_request t ~tid completion);
      advertised =
        (fun pattern ->
          (* DISCOVER matches client advertisements and active reserved
             patterns (a free machine answers for its BOOT patterns,
             §3.5.2). *)
          (not t.crashed)
          &&
          if Pattern.is_reserved pattern then reserved_pattern_active t pattern
          else advertised_raw t pattern);
      classify_unknown_tid = (fun tid -> classify_unknown_tid t tid);
    };
  t

let attach_client t ~parent client =
  if t.client <> None then invalid_arg "Kernel.attach_client: client already attached";
  t.boot <- Running { load_pattern = None };
  t.mint <- Pattern.Mint.create ~serial:(t.mid land 0xFF) ~boot_clock:(Engine.now t.engine);
  t.client <- Some client;
  t.hs_open <- true;
  t.hs_busy <- false;
  invoke_client_handler t (Types.Booting { parent })

let set_boot_program t f = t.boot_program <- Some f

(* ---- primitives ----------------------------------------------------------------- *)

type request_error = Too_many_requests | Request_to_self | Data_too_large | Client_dead

(* The kernel's copy of a client buffer; an empty one is shared. *)
let copy b = if Bytes.length b = 0 then Bytes.empty else Bytes.copy b

let request t ~server ~arg ~put ~get_buffer =
  if t.client = None || t.crashed then Error Client_dead
  else if Transport.outstanding_requests t.transport >= t.cost.Cost.maxrequests then
    Error Too_many_requests
  else if
    Bytes.length put > t.cost.Cost.max_data_bytes
    || Bytes.length get_buffer > t.cost.Cost.max_data_bytes
  then Error Data_too_large
  else begin
    match server.Types.sv_mid with
    | Types.Mid dst when dst = t.mid -> Error Request_to_self
    | Types.Mid dst ->
      let tid = Pattern.Mint.fresh_tid t.mint in
      Hashtbl.replace t.pending tid { pr_get_buffer = get_buffer };
      let ctx = mint_trap_ctx t in
      (match ctx with
       | Some c -> Transport.register_causal t.transport ~tid c
       | None -> ());
      if tracing t then
        emit_event t ?ctx
          (Event.Trap
             { tid; dst; pattern = Pattern.to_int server.Types.sv_pattern;
               put_size = Bytes.length put; get_size = Bytes.length get_buffer });
      (* Copy the put data at trap time; the client must not touch its
         buffer until completion anyway (§3.3.2 rule 1). *)
      let copy_us = Cost.data_copy_us t.cost ~bytes:(Bytes.length put) in
      Metrics.bump_by t.protocol_time copy_us;
      let put = copy put in
      Transport.submit_request t.transport ~dst ~tid ~pattern:server.Types.sv_pattern ~arg
        ~put_data:put ~get_size:(Bytes.length get_buffer);
      Ok tid
    | Types.Broadcast_mid ->
      let tid = Pattern.Mint.fresh_tid t.mint in
      Hashtbl.replace t.pending tid { pr_get_buffer = get_buffer };
      let ctx = mint_trap_ctx t in
      (match ctx with
       | Some c -> Transport.register_causal t.transport ~tid c
       | None -> ());
      if tracing t then
        emit_event t ?ctx
          (Event.Trap
             { tid; dst = Event.broadcast_peer;
               pattern = Pattern.to_int server.Types.sv_pattern; put_size = 0;
               get_size = Bytes.length get_buffer });
      Transport.submit_discover t.transport ~tid ~pattern:server.Types.sv_pattern
        ~max_mids:(Bytes.length get_buffer / 2);
      Ok tid
  end

let land_accept t ~get_buffer ~on_done status data =
  let len = min (Bytes.length data) (Bytes.length get_buffer) in
  Bytes.blit data 0 get_buffer 0 len;
  ignore (Delay_line.push t.returns ~fire:accept_returned t ~n:len on_done status)

let accept_landed t ~get_buffer ~on_done = function
  | Transport.Acc_success data -> land_accept t ~get_buffer ~on_done Types.Accept_success data
  | Transport.Acc_cancelled -> land_accept t ~get_buffer ~on_done Types.Accept_cancelled Bytes.empty
  | Transport.Acc_crashed data -> land_accept t ~get_buffer ~on_done Types.Accept_crashed data

(* The transport keeps the one closure made here until the ACCEPT ends. *)
let accept t ~requester ~arg ~get_buffer ~put ~on_done =
  let data_out = copy put in
  Transport.accept t.transport ~requester_mid:requester.Types.rq_mid
    ~requester_tid:requester.Types.rq_tid ~arg ~get_capacity:(Bytes.length get_buffer)
    ~data_out ~on_done:(fun outcome -> accept_landed t ~get_buffer ~on_done outcome)

let cancel t ~requester ~on_done =
  let tid = requester.Types.rq_tid in
  if requester.Types.rq_mid <> t.mid then on_done false
  else
    (* A cancelled request never completes: drop its get buffer now. *)
    Transport.cancel t.transport ~tid ~on_done:(fun ok ->
        if ok then Hashtbl.remove t.pending tid;
        on_done ok)

let advertise t pattern =
  if Pattern.is_reserved pattern then Error `Reserved_pattern
  else begin
    advertise_raw t pattern;
    Ok ()
  end

let unadvertise t pattern =
  if Pattern.is_reserved pattern then Error `Reserved_pattern
  else begin
    unadvertise_raw t pattern;
    Ok ()
  end

let advertised t pattern = advertised_raw t pattern

let getuniqueid t = Pattern.Mint.fresh_pattern t.mint

let open_handler t =
  t.hs_open <- true;
  if not t.hs_busy then dispatch_completions t

let close_handler t = t.hs_open <- false

let endhandler t =
  t.hs_busy <- false;
  if tracing t then emit_event t Event.Endhandler;
  dispatch_completions t

let die t =
  mark t ~peer:(-1) ~n:0 Event.Client_died;
  kill_client t ~readvertise_boot:true ~drain:true

let crash t =
  mark t ~peer:(-1) ~n:0 Event.Hardware_crash;
  t.crashed <- true;
  Nic.disable t.nic;
  kill_client t ~readvertise_boot:true ~drain:false;
  let quarantine = Cost.crash_quarantine_us t.cost in
  Engine.schedule ~tag:"kernel" t.engine ~delay:quarantine (fun () ->
      t.crashed <- false;
      Nic.enable t.nic;
      mark t ~peer:(-1) ~n:0 Event.Quarantine_over)

(* Unlike [crash], [destroy] is permanent: the bus station is released so a
   replacement incarnation (a fresh [create] under the same mid) can attach.
   [Network.crash_node] / [reboot_node] drive this. *)
let destroy t =
  mark t ~peer:(-1) ~n:1 Event.Hardware_crash;
  t.crashed <- true;
  Nic.disable t.nic;
  kill_client t ~readvertise_boot:true ~drain:false;
  Transport.shutdown t.transport

(* Post-reboot quarantine of §5.4: the fresh incarnation stays silent for
   2*MPL + delta-t so every packet addressed to the previous incarnation
   has either died of old age or been answered by the void. *)
let quarantine t =
  t.crashed <- true;
  Nic.disable t.nic;
  let quarantine_us = Cost.crash_quarantine_us t.cost in
  Engine.schedule ~tag:"kernel" t.engine ~delay:quarantine_us (fun () ->
      t.crashed <- false;
      Nic.enable t.nic;
      mark t ~peer:(-1) ~n:1 Event.Quarantine_over)
