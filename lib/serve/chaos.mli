(** Seeded fault injection for the serve daemon's validation path.

    [--chaos] turns the daemon's expensive dependency (the batched-engine
    validation behind [/v1/predict]) into a deterministic fault source so
    the slam client can assert the breaker's full life-cycle: a
    [fail_burst] of [n] makes the first [n] validation calls fail — the
    breaker provably opens — after which injected failures stop and the
    half-open probe provably succeeds, closing it again. [fail_rate]
    adds steady-state noise on top; [slow_rate]/[slow_ms] stretch a
    fraction of calls to exercise deadline expiry under load.

    Decisions draw from {!Perturb.Prng} streams keyed by worker id, so a
    given [--seed] produces the same fault schedule on every run. *)

type spec = {
  fail_burst : int;  (** first N validation calls fail deterministically *)
  fail_rate : float;  (** steady-state failure probability, [0, 1] *)
  slow_rate : float;  (** probability of an injected stall, [0, 1] *)
  slow_ms : float;  (** stall duration when injected *)
}

val none : spec
(** All zero — no injection. *)

val v :
  ?fail_burst:int -> ?fail_rate:float -> ?slow_rate:float -> ?slow_ms:float ->
  unit -> spec
(** Raises [Invalid_argument] on negative fields or rates outside
    [0, 1]. *)

val enabled : spec -> bool

type t
(** Shared injection state: the burst countdown is global (an atomic), the
    random streams are per-worker. *)

val create : seed:int -> workers:int -> spec -> t

val decide : t -> worker:int -> [ `Ok | `Fail | `Slow of float ]
(** The fault (if any) to inject into this validation call. [`Slow d]
    asks the caller to stall [d] seconds and then proceed normally.
    Burst failures take priority over everything; they burn down the
    global countdown. *)

val injected_failures : t -> int
