(** Declarative fault plans: virtual-time-scheduled adversarial actions,
    executed deterministically by the sim engine via {!Injector}.

    The text format is line-oriented; [#] starts a comment:

    {v
    at 500000  partition 0,1 | 2,3   # cut the bus between the two groups
    at 800000  heal
    at 1000000 crash 1               # tear node 1 down mid-workload
    at 1600000 reboot 1              # fresh boot epoch + §5.4 quarantine
    at 1700000 duplicate 3           # next 3 frames delivered twice
    at 1800000 jitter 0 2000         # per-frame delivery jitter (reordering)
    at 1900000 loss-burst 0.4 200000 # 40% loss for 200 ms
    v}

    [of_string]/[to_string] round-trip, so a failing chaos case is fully
    reproducible from the printed plan alone. *)

type action =
  | Partition of int list * int list
      (** Frames between the two groups are dropped (in-flight ones too). *)
  | Heal
  | Crash of int  (** Tear the node down; it stays dead until [Reboot]. *)
  | Reboot of int  (** Fresh kernel incarnation + reboot quarantine. *)
  | Duplicate_next of int  (** The next n frames are delivered twice. *)
  | Delay_jitter of { min_us : int; max_us : int }
      (** Per-frame random delivery delay; [{min_us = 0; max_us = 0}] clears. *)
  | Loss_burst of { rate : float; duration_us : int }
      (** Elevated loss rate for a window, then restore. *)

type step = { at_us : int; action : action }
type t = step list

val step_to_string : step -> string

(** One line per step, trailing newline. *)
val to_string : t -> string

(** Parse the text format; steps are returned sorted by time (stable).
    [Error message] carries a 1-based line number. *)
val of_string : string -> (t, string) result

(** Read and parse a plan file. *)
val load : string -> (t, string) result
