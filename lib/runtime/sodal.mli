(** SODAL: the client-side programming interface (§4.1).

    A SODAL program has three parts — Initialization, Handler, Task
    (skeleton of §4.1) — mapped here onto callbacks of a {!spec}. The
    Handler is split into the paper's [case ENTRY] / [case COMPLETION]
    branches as [on_request] / [on_completion].

    All primitives take the client's {!env} and may only be called from
    that client's fibers. Blocking primitives ([b_put], [accept_*],
    [cancel], [discover], [idle]) suspend the calling fiber over simulated
    time. As in the paper (§4.1.1), blocking REQUESTs may not be issued
    from within the handler; [accept_*] may (and usually are). *)

module Types = Soda_base.Types
module Pattern = Soda_base.Pattern

type env

exception Sodal_error of string

(** MAXREQUESTS uncompleted requests outstanding (§3.3.2 rule 5). *)
exception Too_many_requests

(** {1 Program structure} *)

type request_info = {
  asker : Types.requester_signature;
  pattern : Pattern.t;  (** the ENTRY: which advertised pattern was used *)
  arg : int;
  put_size : int;
  get_size : int;
}

type comp_status =
  | Comp_ok
  | Comp_rejected  (** completed with a negative argument (§4.1.2) *)
  | Comp_crashed
  | Comp_unadvertised

type completion_info = {
  tid : Types.tid;  (** the COMPLETION case label *)
  status : comp_status;
  reply_arg : int;
  put_transferred : int;
  get_transferred : int;
}

type spec = {
  init : env -> parent:int -> unit;  (** Initialization section (BOOTING) *)
  on_request : env -> request_info -> unit;  (** handler, case ENTRY *)
  on_completion : env -> completion_info -> unit;  (** handler, case COMPLETION *)
  task : env -> unit;  (** Task; returning performs an implicit DIE *)
}

(** [serve env] idles forever: the Task section of a pure server. *)
val serve : env -> unit

(** A spec with empty sections and [serve] as the Task (a client whose Task
    section actually returns performs the paper's implicit DIE; pure
    servers must not). *)
val default_spec : spec

(** [attach kernel spec] installs a resident client on [kernel] and
    schedules its boot. Returns the environment (useful to tests). *)
val attach : ?parent:int -> Soda_core.Kernel.t -> spec -> env

(** [bootable kernel spec] registers [spec] as the program started when a
    parent boots this node over the network (§3.5.2). *)
val bootable : Soda_core.Kernel.t -> spec -> unit

(** [bootable_dynamic kernel f] like {!bootable}, but the program is
    derived from the received core image (used by the connector's loader,
    §4.3.1). *)
val bootable_dynamic : Soda_core.Kernel.t -> (parent:int -> image:bytes -> spec) -> unit

(** {1 Environment} *)

val my_mid : env -> int
val kernel : env -> Soda_core.Kernel.t
val now : env -> int
val in_handler : env -> bool

(** {1 Naming} *)

val advertise : env -> Pattern.t -> unit
val unadvertise : env -> Pattern.t -> unit
val getuniqueid : env -> Pattern.t

(** [discover env pattern] blocks until one advertiser is found; returns
    its full SERVER SIGNATURE (§4.1.3). Retries until an answer arrives. *)
val discover : env -> Pattern.t -> Types.server_signature

(** [discover_list env pattern ~max] returns every mid that answered one
    broadcast round (possibly none). *)
val discover_list : env -> Pattern.t -> max:int -> int list

(** {1 Non-blocking REQUEST variants (§4.1.1)}

    The buffers passed here are the kernel's to read and fill until the
    request completes or is cancelled (§3.3.2 rule 1): the put data is
    read in place when the REQUEST is encoded, never copied at the trap,
    and [into] is filled from the ACCEPT's frame at completion. A task
    that reuses a buffer for its next request must wait for the
    completion first ({!Kernel.request}). *)

val signal : env -> Types.server_signature -> arg:int -> Types.tid
val put : env -> Types.server_signature -> arg:int -> bytes -> Types.tid
val get : env -> Types.server_signature -> arg:int -> into:bytes -> Types.tid
val exchange : env -> Types.server_signature -> arg:int -> bytes -> into:bytes -> Types.tid

(** {1 Blocking variants} *)

val b_signal : env -> Types.server_signature -> arg:int -> completion_info
val b_put : env -> Types.server_signature -> arg:int -> bytes -> completion_info
val b_get : env -> Types.server_signature -> arg:int -> into:bytes -> completion_info
val b_exchange :
  env -> Types.server_signature -> arg:int -> bytes -> into:bytes -> completion_info

(** [await_first env tids] blocks the task until one of the named
    non-blocking requests completes. The losers' waiters are deregistered:
    their completions fall through to [on_completion] unless re-awaited,
    cancelled, or swallowed. Illegal in the handler. *)
val await_first : env -> Types.tid list -> completion_info

(** [await_completion env tid] blocks until that request completes. *)
val await_completion : env -> Types.tid -> completion_info

(** [swallow_completion env tid] consumes the eventual completion interrupt
    of [tid] silently instead of invoking [on_completion] (used after a
    failed CANCEL of a fire-and-forget request). *)
val swallow_completion : env -> Types.tid -> unit

(** [on_completion_of env tid k] registers a one-shot callback for that
    request's completion, bypassing [on_completion]. [k] runs in interrupt
    context: it must not block (record and return; idle waiters are woken
    afterwards). *)
val on_completion_of : env -> Types.tid -> (completion_info -> unit) -> unit

(** {1 ACCEPT variants (blocking, bounded time)}

    [data] goes out by reference: the ACCEPT is encoded from it, and
    re-encoded if retransmitted, until the call returns. [into] is filled
    from the frame that brought the put data. Neither is touched after
    the return. *)

val accept_signal : env -> Types.requester_signature -> arg:int -> Types.accept_status

(** Complete a PUT: requester data lands in [into]; returns bytes taken.
    With [Accept_crashed] the requester vanished before the ACCEPT was
    known delivered; put data that had already arrived still lands, so
    the count can be non-zero (the same holds for the other ACCEPTs that
    take put data). *)
val accept_put :
  env -> Types.requester_signature -> arg:int -> into:bytes -> Types.accept_status * int

(** Complete a GET: send [data]. *)
val accept_get :
  env -> Types.requester_signature -> arg:int -> data:bytes -> Types.accept_status

val accept_exchange :
  env ->
  Types.requester_signature ->
  arg:int ->
  into:bytes ->
  data:bytes ->
  Types.accept_status * int

(** ACCEPT_CURRENT_* (§4.1.2): complete the request that invoked the
    current handler. Illegal outside the handler. *)

val accept_current_signal : env -> arg:int -> Types.accept_status
val accept_current_put : env -> arg:int -> into:bytes -> Types.accept_status * int
val accept_current_get : env -> arg:int -> data:bytes -> Types.accept_status
val accept_current_exchange :
  env -> arg:int -> into:bytes -> data:bytes -> Types.accept_status * int

(** REJECT (§4.1.2): accept the current request with argument -1 and no
    data. *)
val reject : env -> unit

val reject_request : env -> Types.requester_signature -> unit

(** {1 Other primitives} *)

(** CANCEL; true iff the request will never complete (§3.3.3). *)
val cancel : env -> Types.tid -> bool

val open_handler : env -> unit
val close_handler : env -> unit

(** [idle env] suspends the task until some handler activity occurs
    (the SODAL [idle()] of §4.1.1). *)
val idle : env -> unit

(** [idle_for env us] is [idle] bounded by a timer: it also returns once
    [us] microseconds have passed without handler activity. *)
val idle_for : env -> int -> unit

(** [compute env us] models [us] microseconds of client computation. *)
val compute : env -> int -> unit

(** DIE: terminate this client (§3.5.1). Does not return. *)
val die : env -> 'a

(** [server env ~mid ~pattern] casts <mid, pattern>. *)
val server : mid:int -> pattern:Pattern.t -> Types.server_signature

(** [server_broadcast ~pattern] casts <BROADCAST, pattern>. *)
val server_broadcast : pattern:Pattern.t -> Types.server_signature
