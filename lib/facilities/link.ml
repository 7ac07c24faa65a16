module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Sodal = Soda_runtime.Sodal

type id = int

type role = Master | Slave

let link_service = Pattern.well_known 0o4040

(* Special argument values of the link protocol (§4.2.4). *)
let arg_become_master = -1
let arg_moved = -2
let arg_installed = -3
let arg_destroyed = -4

type entry = {
  mutable local_pattern : Pattern.t;  (** advertised; identifies this end *)
  mutable remote_machine : int;
  mutable remote_pattern : Pattern.t option;  (** None until wired *)
  mutable state : role;
  mutable installed : bool;
  mutable moving : bool;
  mutable destroyed : bool;
  mutable want_to_move : Types.requester_signature list;
      (** SLAVEs asking to become MASTER while we are moving *)
}

type manager = {
  mutable next_id : int;
  table : (id, entry) Hashtbl.t;
  mutable generation : int;  (** bumped on any table update, for retry waits *)
}

let create_manager () = { next_id = 0; table = Hashtbl.create 8; generation = 0 }

let touch mgr = mgr.generation <- mgr.generation + 1

let links mgr =
  Hashtbl.fold (fun id e acc -> if e.installed && not e.destroyed then id :: acc else acc)
    mgr.table []
  |> List.sort compare

let find_by_pattern mgr pattern =
  Hashtbl.fold
    (fun id e acc ->
      if Pattern.equal e.local_pattern pattern && not e.destroyed then Some (id, e) else acc)
    mgr.table None

(* ---- wire encodings ---------------------------------------------------- *)

let encode_end ~machine ~pattern =
  let b = Bytes.create 8 in
  Bytes.set b 0 (Char.chr ((machine lsr 8) land 0xFF));
  Bytes.set b 1 (Char.chr (machine land 0xFF));
  let v = Pattern.to_int pattern in
  for i = 0 to 5 do
    Bytes.set b (2 + i) (Char.chr ((v lsr (8 * (5 - i))) land 0xFF))
  done;
  b

let decode_end b =
  if Bytes.length b < 8 then None
  else begin
    let machine = (Char.code (Bytes.get b 0) lsl 8) lor Char.code (Bytes.get b 1) in
    let v = ref 0 in
    for i = 0 to 5 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (2 + i))
    done;
    match Pattern.of_int !v with
    | p -> Some (machine, p)
    | exception Invalid_argument _ -> None
  end

let encode_role = function Master -> 0 | Slave -> 1

let decode_role = function 0 -> Master | _ -> Slave

(* install request payload: remote end (8 bytes) + role for the NEW holder *)
let encode_install ~machine ~pattern ~role =
  let b = Bytes.create 9 in
  Bytes.blit (encode_end ~machine ~pattern) 0 b 0 8;
  Bytes.set b 8 (Char.chr (encode_role role));
  b

let decode_install b =
  if Bytes.length b < 9 then None
  else
    match decode_end (Bytes.sub b 0 8) with
    | Some (machine, pattern) -> Some (machine, pattern, decode_role (Char.code (Bytes.get b 8)))
    | None -> None

let encode_pattern pattern = Bytes.sub (encode_end ~machine:0 ~pattern) 2 6

let decode_pattern b =
  if Bytes.length b < 6 then None
  else begin
    let v = ref 0 in
    for i = 0 to 5 do
      v := (!v lsl 8) lor Char.code (Bytes.get b i)
    done;
    match Pattern.of_int !v with p -> Some p | exception Invalid_argument _ -> None
  end

(* ---- handler side -------------------------------------------------------- *)

let install_new_end env mgr info =
  (* EXCHANGE on LINK_SERVICE: receive the remote end's address and role,
     mint a fresh local pattern, advertise it, return it. The end is
     BEING_INSTALLED until the -3 signal. *)
  let into = Bytes.create 9 in
  let fresh = Sodal.getuniqueid env in
  let reply = encode_pattern fresh in
  (* remote_pattern may legitimately be a placeholder during a move; the -2
     update will fix it. *)
  let status, got =
    Sodal.accept_exchange env info.Sodal.asker ~arg:0 ~into ~data:reply
  in
  match status with
  | Types.Accept_success ->
    (match decode_install (Bytes.sub into 0 got) with
     | Some (machine, pattern, role) ->
       Sodal.advertise env fresh;
       let id = mgr.next_id in
       mgr.next_id <- id + 1;
       Hashtbl.replace mgr.table id
         {
           local_pattern = fresh;
           remote_machine = machine;
           remote_pattern = Some pattern;
           state = role;
           installed = false;
           moving = false;
           destroyed = false;
           want_to_move = [];
         };
       touch mgr
     | None -> ())
  | Types.Accept_cancelled | Types.Accept_crashed -> ()

let handle_link_request env mgr on_data info =
  let pattern = info.Sodal.pattern in
  if Pattern.equal pattern link_service then install_new_end env mgr info
  else begin
    match find_by_pattern mgr pattern with
    | None -> Sodal.reject env
    | Some (id, entry) ->
      let arg = info.Sodal.arg in
      if entry.moving && arg <> arg_become_master then
        (* Requests over a moving link are REJECTED and reissued later. *)
        Sodal.reject env
      else if arg >= 0 then begin
        (* User data. *)
        let into = Bytes.create info.Sodal.put_size in
        let status, got = Sodal.accept_put env info.Sodal.asker ~arg:0 ~into in
        (match status with
         | Types.Accept_success ->
           let reply = on_data env mgr id ~arg (Bytes.sub into 0 got) in
           ignore reply
         | Types.Accept_cancelled | Types.Accept_crashed -> ())
      end
      else if arg = arg_become_master then begin
        if not entry.moving then begin
          (* Grant mastership; we become the SLAVE end. *)
          ignore
            (Sodal.accept_current_get env ~arg:0 ~data:(Bytes.of_string "S"));
          entry.state <- Slave;
          touch mgr
        end
        else
          (* We are moving: park the asker; it will be told to retry when
             the move completes (§4.2.4). *)
          entry.want_to_move <- info.Sodal.asker :: entry.want_to_move
      end
      else if arg = arg_moved then begin
        (* The partner end moved: update the binding and retry senders. *)
        let into = Bytes.create 8 in
        let status, got = Sodal.accept_current_put env ~arg:0 ~into in
        (match status with
         | Types.Accept_success ->
           (match decode_end (Bytes.sub into 0 got) with
            | Some (machine, pattern) ->
              entry.remote_machine <- machine;
              entry.remote_pattern <- Some pattern;
              touch mgr
            | None -> ())
         | Types.Accept_cancelled | Types.Accept_crashed -> ())
      end
      else if arg = arg_installed then begin
        ignore (Sodal.accept_current_signal env ~arg:0);
        entry.installed <- true;
        touch mgr
      end
      else if arg = arg_destroyed then begin
        ignore (Sodal.accept_current_signal env ~arg:0);
        entry.destroyed <- true;
        Sodal.unadvertise env entry.local_pattern;
        touch mgr
      end
      else Sodal.reject env
  end

let default_on_data _env _mgr _id ~arg:_ _data = Bytes.empty

let spec ?init:(user_init = fun _ _ ~parent:_ -> ()) ?(on_data = default_on_data)
    ?task:user_task () =
  let mgr = create_manager () in
  let spec =
    {
      Sodal.default_spec with
      init =
        (fun env ~parent ->
          Sodal.advertise env link_service;
          user_init env mgr ~parent);
      on_request = (fun env info -> handle_link_request env mgr on_data info);
      task =
        (match user_task with
         | Some task -> fun env -> task env mgr
         | None -> Sodal.default_spec.Sodal.task);
    }
  in
  (mgr, spec)

(* ---- task-side operations -------------------------------------------------- *)

let wait_generation env mgr gen =
  while mgr.generation = gen do
    Sodal.compute env 5_000
  done

let wait_for_links env mgr ~n =
  while List.length (links mgr) < n do
    Sodal.compute env 5_000
  done

(* Ask a remote link manager to create an end wired to [remote]. Returns
   the pattern of the new end. *)
let request_install env ~at ~remote_machine ~remote_pattern ~role =
  let payload = encode_install ~machine:remote_machine ~pattern:remote_pattern ~role in
  let into = Bytes.create 6 in
  let c =
    Sodal.b_exchange env (Sodal.server ~mid:at ~pattern:link_service) ~arg:0 payload ~into
  in
  match c.Sodal.status with
  | Sodal.Comp_ok -> decode_pattern into
  | Sodal.Comp_rejected | Sodal.Comp_crashed | Sodal.Comp_unadvertised -> None

let introduce env ~a ~b =
  (* Chicken-and-egg: each end must name the other, but neither pattern
     exists yet. Create A's end against a placeholder, then B's against the
     real A address, then fix A via the -2 (moved) update. *)
  let placeholder = link_service in
  match request_install env ~at:a ~remote_machine:b ~remote_pattern:placeholder ~role:Master with
  | None -> raise (Sodal.Sodal_error "introduce: first end refused")
  | Some pattern_a ->
    (match
       request_install env ~at:b ~remote_machine:a ~remote_pattern:pattern_a ~role:Slave
     with
     | None -> raise (Sodal.Sodal_error "introduce: second end refused")
     | Some pattern_b ->
       let fix_a =
         Sodal.b_put env (Sodal.server ~mid:a ~pattern:pattern_a) ~arg:arg_moved
           (encode_end ~machine:b ~pattern:pattern_b)
       in
       ignore fix_a;
       ignore (Sodal.b_signal env (Sodal.server ~mid:a ~pattern:pattern_a) ~arg:arg_installed);
       ignore (Sodal.b_signal env (Sodal.server ~mid:b ~pattern:pattern_b) ~arg:arg_installed))

let entry_exn mgr id =
  match Hashtbl.find_opt mgr.table id with
  | Some e -> e
  | None -> raise (Sodal.Sodal_error "unknown link id")

let send env mgr id ?(arg = 0) data =
  if arg < 0 then invalid_arg "Link.send: user arguments are non-negative";
  let entry = entry_exn mgr id in
  let rec attempt () =
    if entry.destroyed then `Destroyed
    else if not entry.installed then begin
      let gen = mgr.generation in
      wait_generation env mgr gen;
      attempt ()
    end
    else begin
      match entry.remote_pattern with
      | None ->
        let gen = mgr.generation in
        wait_generation env mgr gen;
        attempt ()
      | Some remote ->
        let c =
          Sodal.b_put env (Sodal.server ~mid:entry.remote_machine ~pattern:remote) ~arg data
        in
        (match c.Sodal.status with
         | Sodal.Comp_ok -> `Ok
         | Sodal.Comp_rejected | Sodal.Comp_unadvertised ->
           (* Far end moving or moved: wait for the -2 update, reissue. *)
           let gen = mgr.generation in
           wait_generation env mgr gen;
           attempt ()
         | Sodal.Comp_crashed -> `Destroyed)
    end
  in
  attempt ()

let become_master env mgr id =
  let entry = entry_exn mgr id in
  let rec loop () =
    if entry.state = Slave then begin
      match entry.remote_pattern with
      | None ->
        let gen = mgr.generation in
        wait_generation env mgr gen;
        loop ()
      | Some remote ->
        let into = Bytes.create 1 in
        let c =
          Sodal.b_get env
            (Sodal.server ~mid:entry.remote_machine ~pattern:remote)
            ~arg:arg_become_master ~into
        in
        (match c.Sodal.status with
         | Sodal.Comp_ok ->
           entry.state <- Master;
           touch mgr
         | Sodal.Comp_rejected | Sodal.Comp_unadvertised | Sodal.Comp_crashed ->
           (* Master end busy moving; try again once things settle. *)
           Sodal.compute env 10_000;
           loop ())
    end
  in
  loop ()

let move env mgr id ~to_machine =
  let entry = entry_exn mgr id in
  entry.moving <- true;
  touch mgr;
  become_master env mgr id;
  let old_machine = entry.remote_machine in
  let old_pattern =
    match entry.remote_pattern with
    | Some p -> p
    | None -> raise (Sodal.Sodal_error "move: link not wired")
  in
  (* Create the replacement end at the destination, wired to our partner. *)
  (match
     request_install env ~at:to_machine ~remote_machine:old_machine
       ~remote_pattern:old_pattern ~role:Master
   with
   | None -> raise (Sodal.Sodal_error "move: destination refused the end")
   | Some new_pattern ->
     (* Tell the partner its new remote address; it flushes rejected
        requests and reissues them. *)
     ignore
       (Sodal.b_put env (Sodal.server ~mid:old_machine ~pattern:old_pattern) ~arg:arg_moved
          (encode_end ~machine:to_machine ~pattern:new_pattern));
     (* Tell the new end everything is installed. *)
     ignore
       (Sodal.b_signal env (Sodal.server ~mid:to_machine ~pattern:new_pattern)
          ~arg:arg_installed));
  (* Our end is gone: release parked become-master requests so they retry
     against the moved end, then drop the entry. *)
  let parked = entry.want_to_move in
  entry.want_to_move <- [];
  List.iter (fun asker -> Sodal.reject_request env asker) parked;
  entry.moving <- false;
  entry.destroyed <- true;
  Sodal.unadvertise env entry.local_pattern;
  Hashtbl.remove mgr.table id;
  touch mgr

let destroy env mgr id =
  let entry = entry_exn mgr id in
  (match entry.remote_pattern with
   | Some remote when not entry.destroyed ->
     let c =
       Sodal.b_signal env
         (Sodal.server ~mid:entry.remote_machine ~pattern:remote)
         ~arg:arg_destroyed
     in
     ignore c
   | Some _ | None -> ());
  entry.destroyed <- true;
  Sodal.unadvertise env entry.local_pattern;
  Hashtbl.remove mgr.table id;
  touch mgr
