open Effect.Deep

exception Stop

type _ Effect.t += Park : unit Effect.t

type slot = { mutable k : (unit, unit) continuation }

(* The mark of an empty slot: a continuation that is never resumed, taken
   once from a fiber that parks as soon as it starts. A slot holds it
   rather than an option, so a park allocates no [Some]. *)
let empty =
  let got : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Park
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> Some (fun (k : (a, unit) continuation) -> got := Some k)
          | _ -> None);
    };
  Option.get !got

let slot () = { k = empty }

let park () = Effect.perform Park

let wake s =
  let k = s.k in
  if k == empty then failwith "Fiber.wake: nothing parked";
  s.k <- empty;
  continue k ()

let runner ~on_exit s fn =
  let park_here = Some (fun k -> s.k <- k) in
  let handler =
    {
      retc = on_exit;
      exnc =
        (fun e ->
          on_exit ();
          match e with Stop -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Park -> park_here
          | _ -> None);
    }
  in
  fun () -> match_with fn () handler
