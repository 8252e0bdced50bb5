(** A sweep-level dataflow evaluation of the whole iteration: tracks the
    actual per-processor finish time of every sweep instead of folding the
    schedule into the ndiag/nfull counts of equation (r5). A
    first-principles cross-check of the closed form, and a tighter bound
    when a Follow-gated sweep's downstream is still draining. *)

val iteration : App_params.t -> Plugplay.config -> float
(** Iteration time including the non-wavefront epilogue. *)

val record_iteration :
  Obs.Metrics.t -> App_params.t -> Plugplay.config -> float
(** As {!iteration}, also publishing the result as the
    [pipeline.t_iteration] gauge. *)
