(** SODA patterns (§3.4, §5.4).

    A pattern is a PATTERNSIZE-bit string used as the service half of a
    SERVER SIGNATURE. We reproduce the experimental implementation of §5.4:

    - PATTERNSIZE = 48 bits, stored in a native OCaml int;
    - bit 47 distinguishes RESERVED patterns (interpreted by the kernel)
      from CLIENT patterns (bindable with ADVERTISE);
    - bit 46 distinguishes well-known patterns from ids minted by
      GETUNIQUEID, so the two name spaces can never collide (§6.14);
    - GETUNIQUEID returns 40 significant bits: an 8-bit node serial number
      concatenated with a 32-bit boot-seeded counter;
    - the top eight bits of a pattern index a 256-slot advertisement table
      (see {!slot}); two advertised patterns agreeing on those bits
      overwrite each other, as documented in §5.4. *)

type t = private int

(** [of_int i] validates that [i] fits in PATTERNSIZE bits.
    @raise Invalid_argument otherwise. *)
val of_int : int -> t

val to_int : t -> int

(** [well_known i] builds a well-known client pattern from up to 40 bits of
    user-chosen name (the SODAL [%0123] literal form). *)
val well_known : int -> t

(** [reserved i] builds a well-known reserved pattern (kernel use only). *)
val reserved : int -> t

val is_reserved : t -> bool
val is_well_known : t -> bool

(** [slot p] is the advertisement-table index: the low byte of the
    48-bit string (GETUNIQUEID increments that byte fastest, so minted
    ids spread across slots). *)
val slot : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Pre-assigned reserved patterns (bound at SODA creation time, §3.7.7.1).
    [boot_pattern kind] encodes the client-processor type so that parents
    can DISCOVER suitable free machines. *)

val kill_pattern : t
val system_pattern : t
val boot_pattern : int -> t

(** Unique-id mint shared by GETUNIQUEID and TID generation (§5.4). *)
module Mint : sig
  type pattern = t
  type t

  (** [create ~serial ~boot_clock] seeds the 32-bit counter from a
      monotonic clock so that reboots never reuse ids. *)
  val create : serial:int -> boot_clock:int -> t

  (** Counter value at creation; accepts of TIDs below this value are
      stale (issued before the last reboot). *)
  val boot_floor : t -> int

  (** Current counter ceiling (exclusive). *)
  val ceiling : t -> int

  (** [fresh_pattern t] implements GETUNIQUEID: a unique client pattern. *)
  val fresh_pattern : t -> pattern

  (** [fresh_reserved t] mints a unique RESERVED pattern (LOAD patterns). *)
  val fresh_reserved : t -> pattern

  (** [fresh_tid t] mints a transaction id from the same counter. *)
  val fresh_tid : t -> int
end
