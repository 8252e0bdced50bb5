(** Discrete-event simulation core.

    Simulated processes are plain functions run with {!spawn}; inside them,
    {!wait} advances simulated time and {!suspend} parks the process until
    another event calls the provided resume thunk. Time is in simulated
    microseconds. *)

type t

val create : unit -> t
val now : t -> float

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Schedule a plain event (not a process) at an absolute time. Raises
    [Invalid_argument] if [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit

val wait : float -> unit
(** Only callable inside a process spawned on some engine. Raises
    [Invalid_argument] on negative durations. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process. [register] receives a
    resume thunk that must be called exactly once (from another event) to
    reschedule the process at the caller's current simulated time; a second
    call raises [Invalid_argument]. *)

val spawn : t -> ?at:float -> (unit -> unit) -> unit
(** Start a process at the given time (default: now). *)

val run : t -> float
(** Execute events until the queue drains; returns the final simulated time.
    Suspended processes whose resume is never called are simply abandoned
    (useful to detect deadlock: their completion flags stay unset). *)

val events_executed : t -> int
