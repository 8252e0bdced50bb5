(** The workflow behind [wavefront perturb]: one perturbation spec driven
    through the analytic estimate ({!Perturb.Estimate}), an unperturbed
    and a perturbed simulator run, the dataflow validator under
    adversarial straggler ordering, and (optionally) the real
    shared-memory kernel — reconciled into a model-vs-sim-vs-real table
    and an absorbed-vs-propagated account of the injected delay. *)

open Wavefront_core

type t = {
  estimate : Perturb.Estimate.breakdown;
  compare : Table.t;  (** perturbed iteration time, model vs sim vs real *)
  injection : Table.t;
      (** per-source injected delay against the estimate's charge, and how
          much of it the pipeline absorbed *)
  sim_base : Engine.outcome;
  sim : Engine.outcome;
  dataflow : Wrun.Dataflow.outcome;
  real :
    (Kernels.Sweep_exec.outcome * Kernels.Sweep_exec.resilient_outcome) option;
      (** baseline and perturbed real runs, when requested *)
  timeline_base : Obs.Timeline.t;  (** unperturbed simulator run *)
  timeline : Obs.Timeline.t;
      (** perturbed run; against [timeline_base] the wait heatmaps show
          where injected delay was absorbed vs propagated *)
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report (GC, CPU, RSS) per
          stage: estimate / simulate / dataflow / real / analyze *)
}

val run :
  ?real:bool ->
  ?model_bus:bool ->
  ?engine:Engine.t ->
  ?capacity:int ->
  Plugplay.config ->
  App_params.t ->
  Perturb.Spec.t ->
  t
(** Evaluate one (configuration, application, perturbation) triple.
    [model_bus] (default on) is passed to {!Engine.observed_run} for
    both the baseline and the perturbed run — on multi-core configs it
    enables the shared-bus contention layer on either engine.
    [real] (default off) also executes the transport kernel twice —
    unperturbed, then perturbed via {!Kernels.Sweep_exec.run_resilient} —
    on one domain per rank; use small core counts. With [real] off the
    report is fully deterministic (simulated time only). [engine]
    (default {!Engine.Event}) selects the observed substrate; the
    injected-delay accounting reads the same [perturb.*] spans either
    way. *)

val exit_status : t -> int
(** 0 clean; 3 degraded (dataflow incomplete, mismatching or leaking
    messages); 4 when ranks were killed — this workflow has no recovery,
    so every spec'd failure counts as unrecovered. See
    {!Recover_report.exit_status} for the recovering counterpart. *)

val pp : Format.formatter -> t -> unit
