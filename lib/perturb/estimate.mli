(** The noise-adjusted (r5)-style bound: what the analytic model predicts
    for an iteration under a perturbation spec.

    Delays on a pipelined wavefront's critical path propagate downstream
    as non-decaying idle waves, so the estimate charges the expected noise
    and contention delays on the path at full weight, and a permanent
    straggler at its whole per-iteration tile count (slowest straggler
    only — concurrent idle waves merge). Every term is non-decreasing in
    its amplitude. Failures have no finite predicted time and are ignored;
    the executable substrates report those as degraded outcomes. *)

open Wavefront_core

type breakdown = {
  base : float;  (** the unperturbed (r5) iteration time, us *)
  noise : float;
  link : float;
  straggler : float;
  scenario : float;
      (** pulse delays at full idle-wave weight, the periodic clause's
          per-wave mean on every path tile, and the expected collective
          stall per allreduce *)
  total : float;
}

val iteration : App_params.t -> Plugplay.config -> Spec.t -> breakdown
val time_per_iteration : App_params.t -> Plugplay.config -> Spec.t -> float
