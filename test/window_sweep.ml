(* The window sweep: 400 random fault scenarios per window W in
   {2, 4, 8, 64}, each streaming the 30,000-byte block of the window
   tests. For each W it prints how the runs ended and an MD5 of their
   JSONL traces; the last line is an MD5 over every W's digest.

   Everything is deterministic per binary, so a transport refactor that
   claims no change in behaviour must print the same lines as its
   parent:

     dune build && ./_build/default/test/window_sweep.exe [W ...]

   Named windows run only those sweeps (the digest then covers those
   only). Scenarios are drawn from [Random.State.make [| 42; W |]]; the
   window is fixed per sweep, not drawn. *)

open Window_run

let draws = 400

let sweep window =
  let st = Random.State.make [| 42; window |] in
  let ok = ref 0 and rejected = ref 0 and gone = ref 0 and lost = ref 0 and hung = ref 0 in
  let digests = Buffer.create (16 * draws) in
  for _ = 1 to draws do
    let s = { (gen_scenario st) with window } in
    let sent, blocks, events, _, _ = run_scenario s long_payload in
    Buffer.add_string digests (Digest.string (Soda_obs.Export.jsonl events));
    incr
      (match sent with
       | Some (Ok ()) -> if blocks = [ long_payload ] then ok else lost
       | Some (Error Stream.Rejected) -> rejected
       | Some (Error Stream.Receiver_gone) -> gone
       | None -> hung)
  done;
  let digest = Digest.to_hex (Digest.string (Buffer.contents digests)) in
  Printf.printf "W=%d ok=%d failed=%d rejected=%d receiver_gone=%d silent_loss=%d unfinished=%d trace=%s\n%!"
    window !ok (draws - !ok) !rejected !gone !lost !hung digest;
  digest

let () =
  let windows =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 2; 4; 8; 64 ]
    | args -> List.map int_of_string args
  in
  let digests = List.map sweep windows in
  Printf.printf "digest=%s\n" (Digest.to_hex (Digest.string (String.concat "" digests)))
