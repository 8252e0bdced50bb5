(** A Hoisie-style single-sweep wavefront model (paper reference [1]),
    included as a baseline: an iteration is modeled as [nsweeps] independent
    fill + stack sweeps, ignoring the precedence overlap captured by the
    plug-and-play model's [nfull]/[ndiag]. Times in microseconds. *)

val time_per_iteration : App_params.t -> Plugplay.config -> float
