(** Remote memory reference: PEEK and POKE (§4.2.3, §6.17.2).

    The server exposes a word-addressed memory behind a well-known RMR
    entry point. PEEK is a GET and POKE is a PUT; the REQUEST argument is
    the word address and the buffer size gives the extent. The server
    accepts directly in its handler; OPEN/CLOSE give mutual exclusion for
    compound updates. *)

module Types = Soda_base.Types
module Sodal = Soda_runtime.Sodal

(** [spec ~pattern ~words] serves a zero-initialised memory of [words]
    16-bit words. The same memory is returned so a co-resident task can
    observe it. *)
val spec : pattern:Soda_base.Pattern.t -> words:int -> Sodal.spec * bytes

type error =
  | Out_of_range  (** address/extent beyond the served memory *)
  | Unreachable

(** [peek env server ~addr ~words] fetches [words] 16-bit words. *)
val peek :
  Sodal.env -> Types.server_signature -> addr:int -> words:int -> (bytes, error) result

(** [poke env server ~addr data] stores [data] at word address [addr]. *)
val poke : Sodal.env -> Types.server_signature -> addr:int -> bytes -> (unit, error) result

(** [test_and_set env server ~addr value] atomically swaps the word at
    [addr] with [value] and returns the old word — the synchronization
    primitive §4.2.3 calls for, built from a single EXCHANGE (atomic
    because the server handler completes it in one invocation). *)
val test_and_set :
  Sodal.env -> Types.server_signature -> addr:int -> int -> (int, error) result

(** [lock env server ~addr] retries {!test_and_set} until the word at
    [addr] was 0 and is now 1; [unlock] clears it. Retries back off
    exponentially from 1 ms to 64 ms ({!Soda_sim.Rng.backoff}), each
    wait doubled by a random jitter drawn from a split of the engine RNG,
    so contenders desynchronise instead of colliding in lockstep. With
    [?timeserver]
    (a §6.16 timeserver signature) the wait is an alarm-backed
    {!Timeserver.sleep}; otherwise it is local compute. Every
    TEST-AND-SET round increments the ["rmr.lock.attempts"] counter of
    the kernel's metrics registry. *)
val lock :
  ?timeserver:Types.server_signature ->
  Sodal.env ->
  Types.server_signature ->
  addr:int ->
  (unit, error) result

val unlock : Sodal.env -> Types.server_signature -> addr:int -> (unit, error) result
