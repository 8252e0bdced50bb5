(** The recovery-aware runtime model: checkpoint interval, rollback
    depth and restart cost as plug-in parameters.

    A {!policy} describes when snapshots are taken (every [interval]
    waves, at cost [ckpt_cost] each) and what a respawn costs
    ([restart_cost]). The closed-form {!term} predicts the overhead a
    recovered run adds over a clean one; {!optimal_interval} is the
    Daly-style balance point. The arithmetic here ([due],
    [checkpoints], [lost_waves]) is the single source of truth for
    {!Model}'s protocol and the real runtime's snapshot schedule, so
    model, simulators and real runtime cannot disagree by construction. *)

type policy = {
  interval : int;  (** K: waves between checkpoints; 0 disables. *)
  ckpt_cost : float;  (** C: microseconds per checkpoint. *)
  restart_cost : float;  (** R: microseconds to respawn from a snapshot. *)
}

val v : ?ckpt_cost:float -> ?restart_cost:float -> int -> policy
(** [v k] is the policy with interval [k]; costs default to 0. Raises
    [Invalid_argument] on negative interval or costs. *)

val disabled : policy
(** Interval 0: recovery off, bitwise invisible everywhere. *)

val enabled : policy -> bool
val pp : policy Fmt.t

val due : interval:int -> wave:int -> bool
(** Whether wave [wave] is a checkpoint wave:
    [interval > 0 && wave > 0 && wave mod interval = 0]. The snapshot is
    taken before the wave's compute, so a failure at a checkpoint wave
    loses nothing. *)

val checkpoints : interval:int -> waves:int -> int
(** Checkpoint waves among waves [0 .. waves-1]: [(waves - 1) / K]. *)

val lost_waves : policy -> fail_wave:int -> int
(** Waves re-executed when a rank dies at global wave [fail_wave]:
    [fail_wave mod K], or all of them if recovery is disabled. *)

type term = {
  checkpoint : float;  (** Total checkpoint overhead over the run. *)
  restart : float;  (** Total respawn cost. *)
  rework : float;  (** Lost waves re-executed. *)
  total : float;
}

val deterministic_term :
  policy -> waves:int -> wave_cost:float -> fail_waves:int list -> term
(** Overhead of a concrete failure schedule — one entry in [fail_waves]
    per failure, holding the global wave at which it strikes. This is
    what the simulators reproduce wave-for-wave. [wave_cost] is the
    compute cost of one wave (the model's [w + w_pre]). *)

val expected_term :
  policy -> waves:int -> wave_cost:float -> failures:int -> term
(** The expectation when only a failure count is known: each failure
    loses [K/2] waves on average. *)

val optimal_interval :
  waves:int -> wave_cost:float -> failures:int -> ckpt_cost:float -> int
(** Daly-style optimum [K* = sqrt (2 * waves * C / (f * T_wave))],
    clamped to [1, waves]. Free checkpoints give 1; zero failures (or
    free waves) give [waves]. *)
