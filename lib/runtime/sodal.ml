module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats
module Pattern = Soda_base.Pattern
module Types = Soda_base.Types
module Cost = Soda_base.Cost_model
module Kernel = Soda_core.Kernel

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
  mutable idle_waiters : (unit -> unit) list;
  block_waits : (int, completion_info -> unit) Hashtbl.t;
  mutable context : fiber_context;
  mutable current_request : Types.requester_signature option;
  mutable spec : spec;
}

and fiber_context = Task_context | Handler_context

and spec = {
  init : env -> parent:int -> unit;
  on_request : env -> request_info -> unit;
  on_completion : env -> completion_info -> unit;
  task : env -> unit;
}

let rec serve env =
  Fiber.await (fun resume -> env.idle_waiters <- resume :: env.idle_waiters);
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

(* ---- environment helpers --------------------------------------------- *)

let my_mid env = Kernel.mid env.kernel
let kernel env = env.kernel
let now env = Engine.now env.engine
let in_handler env = env.context = Handler_context

(* Suspend the calling fiber; the resume is voided if the client is killed
   meanwhile (its processor was reset). The fiber's context (task vs
   handler) is restored on resumption: the task may run while the handler
   fiber is suspended in an ACCEPT, so the flag is per-fiber state saved
   across every suspension. *)
let await env f =
  let gen = env.generation in
  let context = env.context in
  Fiber.await (fun resume ->
      f (fun v ->
          if env.generation = gen then begin
            env.context <- context;
            resume v
          end))

(* Model the client-side cost of invoking a primitive (TRAP + descriptor
   pool management, §5.2.1), then run [k] on the other side of the trap. *)
let trap env us k =
  Stats.add_time (Kernel.stats env.kernel) (Cost.label Cost.Client_overhead) us;
  await env (fun resume -> Engine.schedule ~tag:"client" env.engine ~delay:us resume);
  k ()

let wake_idlers env =
  let waiters = env.idle_waiters in
  env.idle_waiters <- [];
  List.iter (fun w -> w ()) waiters

let idle env = await env (fun resume -> env.idle_waiters <- resume :: env.idle_waiters)

(* Whichever of the timer and the wake-up comes first resumes; a wake-up
   disarms the timer, and a fired timer leaves a spent waiter behind. *)
let idle_for env us =
  await env (fun resume ->
      let timer = Engine.timer ~tag:"client" env.engine resume in
      Engine.arm env.engine timer ~delay:us;
      env.idle_waiters <-
        (fun () ->
          if Engine.armed timer then begin
            Engine.disarm env.engine timer;
            resume ()
          end)
        :: env.idle_waiters)

let compute env us =
  if us > 0 then await env (fun resume -> Engine.schedule ~tag:"client" env.engine ~delay:us resume)

(* ---- handler machinery ------------------------------------------------ *)

let completion_of_event ~tid ~status ~arg ~put_transferred ~get_transferred =
  let status =
    match status with
    | Types.Completed -> if arg < 0 then Comp_rejected else Comp_ok
    | Types.Crashed -> Comp_crashed
    | Types.Unadvertised -> Comp_unadvertised
  in
  { tid; status; reply_arg = arg; put_transferred; get_transferred }

let run_handler_fiber env body =
  Fiber.spawn
    ~on_exit:(fun () ->
      env.context <- Task_context;
      env.current_request <- None;
      Kernel.endhandler env.kernel;
      wake_idlers env)
    (fun () ->
      env.context <- Handler_context;
      Stats.add_time (Kernel.stats env.kernel)
        (Cost.label Cost.Client_overhead)
        env.cost.Cost.handler_client_us;
      compute env env.cost.Cost.handler_client_us;
      body ())

let start_task env =
  Fiber.spawn
    ~on_exit:(fun () ->
      (* Implicit DIE at the end of the Task section (§4.1). *)
      if Kernel.client_alive env.kernel then Kernel.die env.kernel)
    (fun () -> env.spec.task env)

let handle_event env event =
  match event with
  | Types.Booting { parent } ->
    Fiber.spawn
      ~on_exit:(fun () ->
        env.context <- Task_context;
        Kernel.endhandler env.kernel;
        start_task env)
      (fun () ->
        env.context <- Handler_context;
        env.spec.init env ~parent)
  | Types.Request_arrival { requester; pattern; arg; put_size; get_size } ->
    run_handler_fiber env (fun () ->
        env.current_request <- Some requester;
        env.spec.on_request env { asker = requester; pattern; arg; put_size; get_size })
  | Types.Request_completion { requester; status; arg; put_transferred; get_transferred } ->
    let info =
      completion_of_event ~tid:requester.Types.rq_tid ~status ~arg ~put_transferred
        ~get_transferred
    in
    (match Hashtbl.find_opt env.block_waits info.tid with
     | Some k ->
       (* A blocking REQUEST is waiting on this completion: consume the
          interrupt with a minimal handler (the saved-PC trick of §4.1.1)
          and resume the task. *)
       Hashtbl.remove env.block_waits info.tid;
       Kernel.endhandler env.kernel;
       k info;
       wake_idlers env
     | None -> run_handler_fiber env (fun () -> env.spec.on_completion env info))

let make_client kernel spec =
  let env =
    {
      kernel;
      engine = Kernel.engine kernel;
      cost = Kernel.cost kernel;
      generation = 0;
      idle_waiters = [];
      block_waits = Hashtbl.create 8;
      context = Task_context;
      current_request = None;
      spec;
    }
  in
  let client =
    {
      Kernel.invoke_handler = (fun event -> handle_event env event);
      on_kill =
        (fun () ->
          env.generation <- env.generation + 1;
          env.idle_waiters <- [];
          Hashtbl.reset env.block_waits;
          env.context <- Task_context;
          env.current_request <- None);
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
  trap env env.cost.Cost.small_trap_us (fun () ->
      fail_reserved (Kernel.advertise env.kernel pattern))

let unadvertise env pattern =
  trap env env.cost.Cost.small_trap_us (fun () ->
      fail_reserved (Kernel.unadvertise env.kernel pattern))

let getuniqueid env =
  trap env env.cost.Cost.small_trap_us (fun () -> Kernel.getuniqueid env.kernel)

(* ---- requests ------------------------------------------------------------ *)

let request_raw env ~server ~arg ~put ~get_buffer =
  trap env env.cost.Cost.request_trap_us (fun () ->
      match Kernel.request env.kernel ~server ~arg ~put ~get_buffer with
      | Ok tid -> tid
      | Error Kernel.Too_many_requests -> raise Too_many_requests
      | Error Kernel.Request_to_self -> raise (Sodal_error "REQUEST to own machine")
      | Error Kernel.Data_too_large -> raise (Sodal_error "message exceeds kernel buffer")
      | Error Kernel.Client_dead -> raise Fiber.Stop)

let signal env server ~arg = request_raw env ~server ~arg ~put:Bytes.empty ~get_buffer:Bytes.empty
let put env server ~arg data = request_raw env ~server ~arg ~put:data ~get_buffer:Bytes.empty
let get env server ~arg ~into = request_raw env ~server ~arg ~put:Bytes.empty ~get_buffer:into

let exchange env server ~arg data ~into =
  request_raw env ~server ~arg ~put:data ~get_buffer:into

let await_completion env tid =
  if in_handler env then
    raise (Sodal_error "blocking REQUEST within the handler would deadlock (§4.1.1)");
  await env (fun resume -> Hashtbl.replace env.block_waits tid resume)

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
  await env (fun resume ->
      let fired = ref false in
      List.iter
        (fun tid ->
          Hashtbl.replace env.block_waits tid (fun info ->
              if not !fired then begin
                fired := true;
                List.iter (fun t -> Hashtbl.remove env.block_waits t) tids;
                resume info
              end))
        tids)

let await_completion env tid = await_first env [ tid ]

let swallow_completion env tid = Hashtbl.replace env.block_waits tid (fun _ -> ())

let on_completion_of env tid k = Hashtbl.replace env.block_waits tid k

(* ---- accepts --------------------------------------------------------------- *)

let accept_raw env ~requester ~arg ~get_buffer ~put =
  trap env env.cost.Cost.accept_trap_us (fun () ->
      await env (fun resume ->
          Kernel.accept env.kernel ~requester ~arg ~get_buffer ~put ~on_done:resume))

let accept_signal env requester ~arg =
  fst (accept_raw env ~requester ~arg ~get_buffer:Bytes.empty ~put:Bytes.empty)

let accept_put env requester ~arg ~into =
  accept_raw env ~requester ~arg ~get_buffer:into ~put:Bytes.empty

let accept_get env requester ~arg ~data =
  fst (accept_raw env ~requester ~arg ~get_buffer:Bytes.empty ~put:data)

let accept_exchange env requester ~arg ~into ~data =
  accept_raw env ~requester ~arg ~get_buffer:into ~put:data

let current env =
  match env.current_request with
  | Some requester when in_handler env -> requester
  | Some _ | None -> raise (Sodal_error "ACCEPT_CURRENT outside the handler (§4.1.2)")

let accept_current_signal env ~arg = accept_signal env (current env) ~arg
let accept_current_put env ~arg ~into = accept_put env (current env) ~arg ~into
let accept_current_get env ~arg ~data = accept_get env (current env) ~arg ~data

let accept_current_exchange env ~arg ~into ~data =
  accept_exchange env (current env) ~arg ~into ~data

let reject_request env requester = ignore (accept_signal env requester ~arg:(-1))

let reject env = reject_request env (current env)

(* ---- cancel, handler control, process control -------------------------------- *)

let cancel env tid =
  trap env env.cost.Cost.small_trap_us (fun () ->
      await env (fun resume ->
          Kernel.cancel env.kernel ~requester:{ Types.rq_mid = my_mid env; rq_tid = tid }
            ~on_done:resume))

let open_handler env =
  trap env env.cost.Cost.small_trap_us (fun () -> Kernel.open_handler env.kernel)

let close_handler env =
  trap env env.cost.Cost.small_trap_us (fun () -> Kernel.close_handler env.kernel)

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

let self_signature env ~tid = { Types.rq_mid = my_mid env; rq_tid = tid }

let server ~mid ~pattern = { Types.sv_mid = Types.Mid mid; sv_pattern = pattern }

let server_broadcast ~pattern = { Types.sv_mid = Types.Broadcast_mid; sv_pattern = pattern }
