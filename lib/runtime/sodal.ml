module Engine = Soda_sim.Engine
module Metrics = Soda_obs.Metrics
module Pattern = Soda_base.Pattern
module Types = Soda_base.Types
module Cost = Soda_base.Cost_model
module Kernel = Soda_core.Kernel

let k_client_overhead = Metrics.counter_key (Cost.label Cost.Client_overhead)

exception Sodal_error of string
exception Too_many_requests

type request_info = {
  asker : Types.requester_signature;
  pattern : Pattern.t;
  arg : int;
  put_size : int;
  get_size : int;
}

type comp_status = Comp_ok | Comp_rejected | Comp_crashed | Comp_unadvertised

type completion_info = {
  tid : Types.tid;
  status : comp_status;
  reply_arg : int;
  put_transferred : int;
  get_transferred : int;
}

type env = {
  kernel : Kernel.t;
  engine : Engine.t;
  cost : Cost.t;
  mutable generation : int;
  block_waits : (int, completion_info -> unit) Hashtbl.t;
  mutable context : fiber_context;
  mutable spec : spec;
  task_fiber : fiber;
  handler_fiber : fiber;  (* reused by every handler invocation *)
  mutable running : fiber;  (* the fiber that last started or resumed *)
  (* The fibers waiting in [idle], a stack linked through [below] with
     the last to idle on top: [n_idle] deep, [idlers] its top. *)
  mutable idlers : fiber;
  mutable n_idle : int;
  stats : Metrics.t;  (* the kernel's: client overhead, §5.5 *)
}

and fiber_context = Task_context | Handler_context

(* One execution context of the client processor (§3.1). [run] starts
   it: the task once, the handler once per invocation, on the [event]
   written just before. It parks in [slot]; its timer, its ACCEPT return,
   the completion of its blocking REQUEST or of one of its [await_first]
   tids, the answer to its CANCEL and [wake_idlers] each resume it,
   unless the client was killed since it parked. *)
and fiber = {
  owner : env;
  ctx : fiber_context;
  slot : Fiber.slot;
  mutable run : unit -> unit;  (* [Fiber.runner] over [slot], set by [runs] *)
  mutable event : Types.handler_event;  (* the invocation a handler runs *)
  mutable timer : Engine.timer option;  (* made at its first arm *)
  on_accept : Types.accept_status * int -> unit;  (* lands in [accepted] *)
  mutable accepted : Types.accept_status * int;
  on_completed : completion_info -> unit;  (* lands in [completed] *)
  mutable completed : completion_info;
  mutable cancel : cancel_state;
  mutable gen : int;  (* [owner.generation] when it parked *)
  mutable busy : bool;  (* started and not yet ended *)
  mutable idle : bool;  (* on the idle stack *)
  mutable below : fiber;
}

(* Where the fiber's last CANCEL stands: asked and not yet answered,
   parked for the answer, or answered. *)
and cancel_state = Asking | Awaiting | Granted | Refused

and spec = {
  init : env -> parent:int -> unit;
  on_request : env -> request_info -> unit;
  on_completion : env -> completion_info -> unit;
  task : env -> unit;
}

(* ---- environment helpers --------------------------------------------- *)

let my_mid env = Kernel.mid env.kernel
let kernel env = env.kernel
let now env = Engine.now env.engine
let in_handler env = env.context = Handler_context

(* ---- suspension ------------------------------------------------------- *)

(* Resume [fb] where it parked. The resume is voided if the client was
   killed meanwhile (its processor was reset). The fiber's context (task
   vs handler) is restored on resumption: the task may run while the
   handler fiber is suspended in an ACCEPT, so the flag is per-fiber state
   saved across every suspension. *)
let resume fb =
  let env = fb.owner in
  if env.generation = fb.gen then begin
    env.context <- fb.ctx;
    env.running <- fb;
    Fiber.wake fb.slot
  end

let park env fb =
  fb.gen <- env.generation;
  Fiber.park ()

let no_accept = (Types.Accept_cancelled, 0)

let no_event = Types.Booting { parent = 0 }

let no_completion =
  { tid = 0; status = Comp_crashed; reply_arg = 0; put_transferred = 0; get_transferred = 0 }

(* Take [fb] off the idle stack: a fired [idle_for] timer. *)
let unstack env fb =
  fb.idle <- false;
  if env.idlers == fb then env.idlers <- fb.below
  else begin
    let rec find above i =
      if i > 1 then if above.below == fb then above.below <- fb.below else find above.below (i - 1)
    in
    find env.idlers env.n_idle
  end;
  env.n_idle <- env.n_idle - 1

let timer_fired fb =
  if fb.idle then unstack fb.owner fb;
  resume fb

let timer_of fb =
  match fb.timer with
  | Some tm -> tm
  | None ->
    let tm = Engine.timer ~tag:"client" fb.owner.engine (fun () -> timer_fired fb) in
    fb.timer <- Some tm;
    tm

let accept_done fb result =
  fb.accepted <- result;
  resume fb

let completion_done fb info =
  fb.completed <- info;
  resume fb

(* Park the running fiber for [us] of virtual time. *)
let sleep env us =
  let fb = env.running in
  Engine.arm env.engine (timer_of fb) ~delay:us;
  park env fb

(* Model the client-side cost of invoking a primitive (TRAP + descriptor
   pool management, §5.2.1); the caller runs the primitive on the other
   side of the trap. *)
let trap env us =
  Metrics.count_by env.stats k_client_overhead us;
  sleep env us

let idle_park env fb =
  fb.idle <- true;
  fb.below <- env.idlers;
  env.idlers <- fb;
  env.n_idle <- env.n_idle + 1;
  park env fb

(* Wake the fibers idle at the call, the last to idle first. One that
   idles again meanwhile waits for the next call. A fiber in [idle_for]
   is woken here or by its timer, whichever comes first. *)
let wake_idlers env =
  let rec wake fb n =
    if n > 0 then begin
      let below = fb.below in
      fb.idle <- false;
      (match fb.timer with
       | Some tm when Engine.armed tm -> Engine.disarm env.engine tm
       | Some _ | None -> ());
      resume fb;
      wake below (n - 1)
    end
  in
  let top = env.idlers and n = env.n_idle in
  env.n_idle <- 0;
  wake top n

(* The client was killed: its idle fibers will never be woken. *)
let drop_idlers env =
  let rec drop fb n =
    if n > 0 then begin
      fb.idle <- false;
      drop fb.below (n - 1)
    end
  in
  let top = env.idlers and n = env.n_idle in
  env.n_idle <- 0;
  drop top n

let idle env = idle_park env env.running

let idle_for env us =
  let fb = env.running in
  Engine.arm env.engine (timer_of fb) ~delay:us;
  idle_park env fb

let compute env us = if us > 0 then sleep env us

let rec serve env =
  idle env;
  serve env

let default_spec =
  {
    init = (fun _ ~parent:_ -> ());
    on_request = (fun _ _ -> ());
    on_completion = (fun _ _ -> ());
    (* A client with no Task section is a pure server: it idles forever
       rather than falling off the end into the implicit DIE. *)
    task = serve;
  }

(* ---- handler machinery ------------------------------------------------ *)

let completion_of_event ~tid ~status ~arg ~put_transferred ~get_transferred =
  let status =
    match status with
    | Types.Completed -> if arg < 0 then Comp_rejected else Comp_ok
    | Types.Crashed -> Comp_crashed
    | Types.Unadvertised -> Comp_unadvertised
  in
  { tid; status; reply_arg = arg; put_transferred; get_transferred }

let start_fiber env fb =
  fb.busy <- true;
  env.context <- fb.ctx;
  env.running <- fb

let task_body fb =
  let env = fb.owner in
  start_fiber env fb;
  env.spec.task env

let task_exit fb =
  fb.busy <- false;
  (* Implicit DIE at the end of the Task section (§4.1). *)
  let env = fb.owner in
  if Kernel.client_alive env.kernel then Kernel.die env.kernel

(* Give [fb] its runner: [body] and [exit] as two closures over [fb],
   made once with the handler they run under. *)
let runs fb body exit =
  fb.run <- Fiber.runner fb.slot ~on_exit:(fun () -> exit fb) (fun () -> body fb)

let handler_entry env =
  Metrics.count_by env.stats k_client_overhead env.cost.Cost.handler_client_us;
  compute env env.cost.Cost.handler_client_us

(* One handler invocation, read from [fb.event]: Booting runs the
   Initialization section; an arrival or a completion pays the client's
   handler entry cost first. *)
let handler_body fb =
  let env = fb.owner in
  start_fiber env fb;
  match fb.event with
  | Types.Booting { parent } -> env.spec.init env ~parent
  | Types.Request_arrival { requester; pattern; arg; put_size; get_size } ->
    handler_entry env;
    env.spec.on_request env { asker = requester; pattern; arg; put_size; get_size }
  | Types.Request_completion { requester; status; arg; put_transferred; get_transferred } ->
    handler_entry env;
    env.spec.on_completion env
      (completion_of_event ~tid:requester.Types.rq_tid ~status ~arg ~put_transferred
         ~get_transferred)

(* The event is let go here, so that no record keeps a finished
   invocation's event alive past the next minor collection. *)
let handler_exit fb =
  let env = fb.owner and event = fb.event in
  fb.busy <- false;
  fb.event <- no_event;
  env.context <- Task_context;
  match event with
  | Types.Booting _ ->
    Kernel.endhandler env.kernel;
    env.task_fiber.run ()
  | Types.Request_arrival _ | Types.Request_completion _ ->
    Kernel.endhandler env.kernel;
    wake_idlers env

(* The handler record, or a fresh one when a previous invocation is still
   suspended in it (only if the kernel's handler was released by hand). *)
let handler_fiber env =
  let fb = env.handler_fiber in
  if not fb.busy then fb
  else
    let rec spare =
      { fb with slot = Fiber.slot (); timer = None; on_accept = (fun r -> accept_done spare r);
        on_completed = (fun c -> completion_done spare c); busy = false; idle = false }
    in
    runs spare handler_body handler_exit;
    spare

let invoke env event =
  let fb = handler_fiber env in
  fb.event <- event;
  fb.run ()

let handle_event env event =
  match event with
  | Types.Request_completion { requester; status; arg; put_transferred; get_transferred } -> (
    match Hashtbl.find env.block_waits requester.Types.rq_tid with
    | k ->
      (* A blocking REQUEST is waiting on this completion: consume the
         interrupt with a minimal handler (the saved-PC trick of §4.1.1)
         and resume the task. *)
      Hashtbl.remove env.block_waits requester.Types.rq_tid;
      Kernel.endhandler env.kernel;
      k
        (completion_of_event ~tid:requester.Types.rq_tid ~status ~arg ~put_transferred
           ~get_transferred);
      wake_idlers env
    | exception Not_found -> invoke env event)
  | Types.Booting _ | Types.Request_arrival _ -> invoke env event

let make_client kernel spec =
  let rec env =
    {
      kernel;
      engine = Kernel.engine kernel;
      cost = Kernel.cost kernel;
      generation = 0;
      block_waits = Hashtbl.create 8;
      context = Task_context;
      spec;
      task_fiber = task;
      handler_fiber = handler;
      running = task;
      idlers = task;
      n_idle = 0;
      stats = Kernel.stats kernel;
    }
  and task =
    { owner = env; ctx = Task_context; slot = Fiber.slot (); run = ignore; event = no_event;
      timer = None;
      on_accept = (fun r -> accept_done task r); accepted = no_accept;
      on_completed = (fun c -> completion_done task c); completed = no_completion;
      cancel = Refused; gen = 0; busy = false; idle = false; below = task }
  and handler =
    { owner = env; ctx = Handler_context; slot = Fiber.slot (); run = ignore; event = no_event;
      timer = None;
      on_accept = (fun r -> accept_done handler r); accepted = no_accept;
      on_completed = (fun c -> completion_done handler c); completed = no_completion;
      cancel = Refused; gen = 0; busy = false; idle = false; below = handler }
  in
  runs task task_body task_exit;
  runs handler handler_body handler_exit;
  let client =
    {
      Kernel.invoke_handler = (fun event -> handle_event env event);
      on_kill =
        (fun () ->
          env.generation <- env.generation + 1;
          drop_idlers env;
          Hashtbl.reset env.block_waits;
          env.context <- Task_context);
    }
  in
  (env, client)

let attach ?(parent = 0) kernel spec =
  let env, client = make_client kernel spec in
  Kernel.attach_client kernel ~parent client;
  env

let bootable kernel spec =
  Kernel.set_boot_program kernel (fun ~parent:_ ~image:_ ->
      let _env, client = make_client kernel spec in
      client)

let bootable_dynamic kernel make_spec =
  Kernel.set_boot_program kernel (fun ~parent ~image ->
      let _env, client = make_client kernel (make_spec ~parent ~image) in
      client)

(* ---- naming ------------------------------------------------------------ *)

let fail_reserved = function
  | Ok () -> ()
  | Error `Reserved_pattern -> raise (Sodal_error "reserved patterns cannot be (un)advertised")

let advertise env pattern =
  trap env env.cost.Cost.small_trap_us;
  fail_reserved (Kernel.advertise env.kernel pattern)

let unadvertise env pattern =
  trap env env.cost.Cost.small_trap_us;
  fail_reserved (Kernel.unadvertise env.kernel pattern)

let getuniqueid env =
  trap env env.cost.Cost.small_trap_us;
  Kernel.getuniqueid env.kernel

(* ---- requests ------------------------------------------------------------ *)

let request_raw env ~server ~arg ~put ~get_buffer =
  trap env env.cost.Cost.request_trap_us;
  match Kernel.request env.kernel ~server ~arg ~put ~get_buffer with
  | Ok tid -> tid
  | Error Kernel.Too_many_requests -> raise Too_many_requests
  | Error Kernel.Request_to_self -> raise (Sodal_error "REQUEST to own machine")
  | Error Kernel.Data_too_large -> raise (Sodal_error "message exceeds kernel buffer")
  | Error Kernel.Client_dead -> raise Fiber.Stop

let signal env server ~arg = request_raw env ~server ~arg ~put:Bytes.empty ~get_buffer:Bytes.empty
let put env server ~arg data = request_raw env ~server ~arg ~put:data ~get_buffer:Bytes.empty
let get env server ~arg ~into = request_raw env ~server ~arg ~put:Bytes.empty ~get_buffer:into

let exchange env server ~arg data ~into =
  request_raw env ~server ~arg ~put:data ~get_buffer:into

(* The completion lands in the fiber record and resumes it. *)
let await_completion env tid =
  if in_handler env then
    raise (Sodal_error "blocking REQUEST within the handler would deadlock (§4.1.1)");
  let fb = env.running in
  Hashtbl.replace env.block_waits tid fb.on_completed;
  park env fb;
  fb.completed

let b_request env ~server ~arg ~put ~get_buffer =
  let tid = request_raw env ~server ~arg ~put ~get_buffer in
  await_completion env tid

let b_signal env server ~arg = b_request env ~server ~arg ~put:Bytes.empty ~get_buffer:Bytes.empty
let b_put env server ~arg data = b_request env ~server ~arg ~put:data ~get_buffer:Bytes.empty
let b_get env server ~arg ~into = b_request env ~server ~arg ~put:Bytes.empty ~get_buffer:into

let b_exchange env server ~arg data ~into =
  b_request env ~server ~arg ~put:data ~get_buffer:into

let await_first env tids =
  if in_handler env then
    raise (Sodal_error "blocking wait within the handler would deadlock (§4.1.1)");
  if tids = [] then invalid_arg "Sodal.await_first: empty tid list";
  let fb = env.running in
  List.iter (fun tid -> Hashtbl.replace env.block_waits tid fb.on_completed) tids;
  park env fb;
  (* the first completion took its own wait; the others fall through *)
  List.iter (fun tid -> Hashtbl.remove env.block_waits tid) tids;
  fb.completed

let swallow_completion env tid = Hashtbl.replace env.block_waits tid (fun _ -> ())

let on_completion_of env tid k = Hashtbl.replace env.block_waits tid k

(* ---- accepts --------------------------------------------------------------- *)

(* The kernel's return lands in the fiber record and resumes it. *)
let accept_raw env ~requester ~arg ~get_buffer ~put =
  trap env env.cost.Cost.accept_trap_us;
  let fb = env.running in
  Kernel.accept env.kernel ~requester ~arg ~get_buffer ~put ~on_done:fb.on_accept;
  park env fb;
  fb.accepted

let accept_signal env requester ~arg =
  fst (accept_raw env ~requester ~arg ~get_buffer:Bytes.empty ~put:Bytes.empty)

let accept_put env requester ~arg ~into =
  accept_raw env ~requester ~arg ~get_buffer:into ~put:Bytes.empty

let accept_get env requester ~arg ~data =
  fst (accept_raw env ~requester ~arg ~get_buffer:Bytes.empty ~put:data)

let accept_exchange env requester ~arg ~into ~data =
  accept_raw env ~requester ~arg ~get_buffer:into ~put:data

(* The request that invoked the running handler: each handler record
   holds its own invocation, so one suspended beside a spare keeps it. *)
let current env =
  match env.running.event with
  | Types.Request_arrival { requester; _ } when in_handler env -> requester
  | Types.Request_arrival _ | Types.Request_completion _ | Types.Booting _ ->
    raise (Sodal_error "ACCEPT_CURRENT outside the handler (§4.1.2)")

let accept_current_signal env ~arg = accept_signal env (current env) ~arg
let accept_current_put env ~arg ~into = accept_put env (current env) ~arg ~into
let accept_current_get env ~arg ~data = accept_get env (current env) ~arg ~data

let accept_current_exchange env ~arg ~into ~data =
  accept_exchange env (current env) ~arg ~into ~data

let reject_request env requester = ignore (accept_signal env requester ~arg:(-1))

let reject env = reject_request env (current env)

(* ---- cancel, handler control, process control -------------------------------- *)

let cancel_done fb ok =
  let parked = fb.cancel = Awaiting in
  fb.cancel <- (if ok then Granted else Refused);
  if parked then resume fb

(* The kernel answers at once for a foreign, finished or still-queued tid:
   then the fiber does not park. *)
let cancel env tid =
  trap env env.cost.Cost.small_trap_us;
  let fb = env.running in
  fb.cancel <- Asking;
  Kernel.cancel env.kernel ~requester:{ Types.rq_mid = my_mid env; rq_tid = tid }
    ~on_done:(fun ok -> cancel_done fb ok);
  if fb.cancel = Asking then begin
    fb.cancel <- Awaiting;
    park env fb
  end;
  fb.cancel = Granted

let open_handler env =
  trap env env.cost.Cost.small_trap_us;
  Kernel.open_handler env.kernel

let close_handler env =
  trap env env.cost.Cost.small_trap_us;
  Kernel.close_handler env.kernel

let die env =
  Kernel.die env.kernel;
  raise Fiber.Stop

(* ---- discover ------------------------------------------------------------------ *)

let decode_mids buffer count =
  List.init count (fun i ->
      (Char.code (Bytes.get buffer (2 * i)) lsl 8) lor Char.code (Bytes.get buffer ((2 * i) + 1)))

let discover_list env pattern ~max =
  if max < 1 then invalid_arg "Sodal.discover_list: max >= 1";
  let buffer = Bytes.create (2 * max) in
  let server = { Types.sv_mid = Types.Broadcast_mid; sv_pattern = pattern } in
  let completion = b_request env ~server ~arg:0 ~put:Bytes.empty ~get_buffer:buffer in
  match completion.status with
  | Comp_ok -> decode_mids buffer (completion.get_transferred / 2)
  | Comp_rejected | Comp_crashed | Comp_unadvertised -> []

let discover env pattern =
  let rec search () =
    match discover_list env pattern ~max:1 with
    | mid :: _ -> { Types.sv_mid = Types.Mid mid; sv_pattern = pattern }
    | [] ->
      (* DISCOVER blocks until a response is obtained (§4.1.3). *)
      compute env 10_000;
      search ()
  in
  search ()

(* ---- casts ----------------------------------------------------------------------- *)

let server ~mid ~pattern = { Types.sv_mid = Types.Mid mid; sv_pattern = pattern }

let server_broadcast ~pattern = { Types.sv_mid = Types.Broadcast_mid; sv_pattern = pattern }
