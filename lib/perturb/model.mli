(** The perturbation and recovery protocol: a {!Spec.t} and a
    {!Recover.policy} instantiated for a run of a known rank count.

    This module holds the alignment contract that lets one seeded spec
    inject the same delays into every substrate. Substrates call the five
    step functions at fixed points of the Figure-4 program — {!tile_begin}
    at every tile step, {!before_compute} and {!after_compute} around every
    tile compute, {!before_send} before every wavefront send and
    {!before_allreduce} before every allreduce call — and the model makes
    every draw, kill and recovery charge there, in program order. The
    substrate supplies only the [spend kind d] callback: how a delay of
    [d] us is spent and attributed. It is never called with [d <= 0].
    Each rank only touches its own streams and counters, so a single
    model is safe to share across one-domain-per-rank runtimes. *)

exception Killed of { rank : int; tile : int }
(** Raised by {!before_compute} when the spec kills a rank and no
    recovery policy revives it; carries the rank context every failure
    report preserves. *)

(** What an injected delay is: the compute-side clauses ([Noise],
    [Straggler], [Pulse], [Periodic]), the communication stalls ([Link],
    [Collnoise]) and the recovery protocol's charges ([Checkpoint],
    [Restart], [Replay]). *)
type kind =
  | Noise
  | Straggler
  | Pulse
  | Periodic
  | Link
  | Collnoise
  | Checkpoint
  | Restart
  | Replay

val span_name : kind -> string
(** The one span vocabulary for substrates and reports:
    ["perturb.noise"] ... ["perturb.collnoise"], ["recover.checkpoint"],
    ["recover.restart"], ["recover.replay"]. *)

type t

val create :
  ?perturb:Spec.t -> ?recover:Recover.policy -> ranks:int -> unit -> t option
(** [None] when there is nothing to inject: no spec and no enabled
    recovery policy. Raises [Invalid_argument] when the spec names a rank
    outside [0 .. ranks-1]. Without an enabled policy a kill raises
    {!Killed}; with one the rank is revived in place. *)

val tile_begin : t -> rank:int -> wave:int -> (kind -> float -> unit) -> unit
(** At the start of every tile step, global wave [wave]: on a checkpoint
    wave ({!Recover.due}) count the snapshot and spend its cost. *)

val before_compute :
  t -> rank:int -> tile:int -> wave_cost:float -> (kind -> float -> unit) ->
  unit
(** At the start of every tile compute: advance the rank's tile counter
    and, when the spec kills the rank at this tile, either raise {!Killed}
    or, under a recovery policy, revive it and spend the restart cost and
    the replay of {!Recover.lost_waves} waves at [wave_cost] us each. *)

val after_compute :
  t -> rank:int -> work:float -> (kind -> float -> unit) -> unit
(** After the tile's own work of [work] us: the noise (one draw iff the
    spec has a non-zero noise clause, scaled by [work]), straggler, pulse
    and periodic delays, in that order. *)

val before_send : t -> rank:int -> (kind -> float -> unit) -> unit
(** Before every wavefront send by [rank]: one link draw iff the spec has
    a non-zero link clause. *)

val before_allreduce : t -> rank:int -> (kind -> float -> unit) -> unit
(** Before every allreduce call on [rank]: one collective draw iff the
    spec has a non-zero [collnoise] clause. *)

val revive : t -> rank:int -> unit
(** Lift the rank's death sentence after a respawn by a supervisor
    outside the model: failures are fail-stop with replacement, so a
    revived rank never dies again. Draw streams and the tile counter are
    untouched. *)

val is_straggler : t -> rank:int -> bool

val recovered : t -> int list
(** Ranks revived in place by the recovery policy, ascending. *)

val checkpoints : t -> int
(** Checkpoints counted by {!tile_begin} across all ranks. *)
