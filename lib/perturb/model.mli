(** A {!Spec.t} instantiated for a run of a known rank count: per-rank draw
    streams, straggler delays and failure counters.

    Draw alignment is the load-bearing contract: every substrate consumes
    one {!noise_extra} draw per tile compute and one {!link_extra} draw per
    wavefront send, in program order, so the same spec injects the same
    delays into the simulator, the batched engine and the real runtime.
    Each rank only touches its own streams, so a single model is safe to
    share across one-domain-per-rank runtimes. *)

exception Killed of { rank : int; tile : int }
(** Raised by a substrate when {!fails_now} says the rank dies; carries the
    rank context every failure report preserves. *)

type t

val create : Spec.t -> ranks:int -> t
(** Raises [Invalid_argument] when the spec names a rank outside
    [0 .. ranks-1]. *)

val spec : t -> Spec.t
val ranks : t -> int

val noise_extra : t -> rank:int -> work:float -> float
(** Extra compute time (us) for one tile of unperturbed duration [work] us.
    Consumes one draw iff the spec has a noise clause with non-zero
    amplitude. *)

val straggler_delay : t -> rank:int -> float
(** Constant extra us this rank loses per tile (0 for non-stragglers). *)

val link_extra : t -> src:int -> float
(** Injection delay (us) for one message sent by [src]; consumes one draw
    iff the spec has a non-zero link clause. *)

val fails_now : t -> rank:int -> bool
(** Advance the rank's tile counter; true when the spec kills the rank at
    this tile. Call exactly once at the start of every tile compute. *)

val pulse_extra : t -> rank:int -> float
(** One-shot stall (us) the spec injects into the rank's current wave — the
    idle-wave source. The current wave is read from the tile counter, so
    call this after {!fails_now} within the same tile step. Draw-free. *)

val periodic_extra : t -> rank:int -> float
(** Stall (us) of the periodic scenario at the rank's current wave (every
    [period]-th wave on every rank). Same calling contract as
    {!pulse_extra}; draw-free. *)

val coll_extra : t -> rank:int -> float
(** Extra stall (us) before one allreduce operation on [rank]; consumes one
    draw from the rank's collective stream per allreduce substrate call iff
    the spec has a non-zero [collnoise] clause. *)

val revive : t -> rank:int -> unit
(** Lift the rank's death sentence after a recovery respawn: failures
    are fail-stop with replacement, so a revived rank never dies again.
    Draw streams and the tile counter are untouched. *)

val tiles_started : t -> rank:int -> int
val fails : t -> rank:int -> bool
val is_straggler : t -> rank:int -> bool
