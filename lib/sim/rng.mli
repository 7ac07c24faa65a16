(** Deterministic pseudo-random number generator (PCG32).

    Every simulated run is reproducible from a single integer seed. The
    generator is splittable so that independent subsystems (bus fault
    injection, backoff jitter, client workloads) draw from decorrelated
    streams while remaining deterministic. *)

type t

(** [create ~seed] builds a generator. Equal seeds yield equal streams. *)
val create : seed:int -> t

(** [split rng] derives an independent generator from [rng], advancing
    [rng]. *)
val split : t -> t

(** [bits32 rng] returns 32 uniformly random bits as a non-negative int. *)
val bits32 : t -> int

(** [int rng bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float rng bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool rng] returns a uniform boolean. *)
val bool : t -> bool

(** [chance rng p] is true with probability [p] (clamped to [\[0, 1\]]). *)
val chance : t -> float -> bool

(** [backoff rng ~base_us ~cap_us k] is the wait before retry [k] (from
    0) of a capped exponential backoff with jitter: [d = min cap_us
    (base_us * 2^k)], plus a uniform draw from [\[0, d)]. *)
val backoff : t -> base_us:int -> cap_us:int -> int -> int
