(** The workflow behind [wavefront recover]: one (application,
    perturbation, checkpoint policy) triple driven through the
    closed-form recovery term ({!Perturb.Recover}), the simulator with
    the checkpoint/rollback protocol armed, the dataflow reference, and
    (optionally) the real shared-memory kernel — reconciled into a
    model-vs-simulated-vs-real table plus a Daly-interval sweep. *)

open Wavefront_core

type real_result = {
  outcome : Kernels.Sweep_exec.recoverable_outcome;
  matches : bool option;
      (** gathered grid bitwise-equals the sequential reference; [None]
          when the run did not complete *)
}

type t = {
  policy : Perturb.Recover.policy;
  optimal : int;  (** Daly-style optimal interval for this run *)
  waves : int;
  wave_cost : float;  (** the model's [w + w_pre], us per wave *)
  predicted : Perturb.Recover.term;  (** closed form for the spec's schedule *)
  simulated : Perturb.Recover.term;
      (** measured from the simulator's [recover.*] spans: checkpoint is
          the per-rank maximum, restart and rework are totals *)
  tolerance : float;
  within_tolerance : bool;
      (** simulated total within [tolerance] (relative) of the closed form *)
  compare : Table.t;
  intervals : Table.t;  (** expected overhead across candidate intervals *)
  sim_base : Engine.outcome;  (** unperturbed *)
  sim : Engine.outcome;  (** perturbed, recovery armed *)
  dataflow : Wrun.Dataflow.outcome;
  real : real_result option;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report (GC, CPU, RSS) per
          stage: model / simulate / dataflow / real / analyze *)
}

val run :
  ?real:bool ->
  ?model_bus:bool ->
  ?engine:Engine.t ->
  ?tolerance:float ->
  ?capacity:int ->
  policy:Perturb.Recover.policy ->
  Plugplay.config ->
  App_params.t ->
  Perturb.Spec.t ->
  t
(** Evaluate one triple. [model_bus] (default on) is passed to
    {!Engine.observed_run} for both runs — on multi-core configs it
    enables the shared-bus contention layer on either engine.
    [real] (default off) also executes the transport
    kernel under genuine checkpoint/rollback
    ({!Kernels.Sweep_exec.run_recoverable}) and checks the recovered grid
    bitwise against the sequential reference; use small core counts.
    [engine] (default {!Engine.Event}) selects the observed substrate;
    the simulated recovery term reads the same [recover.*] spans either
    way. [tolerance] (default 0.05) bounds the accepted relative gap
    between the simulated and closed-form overhead totals. *)

val exit_status : t -> int
(** 0 clean; 3 degraded (out of tolerance, dataflow mismatches or
    orphans, or a real-run grid mismatch); 4 when any failure went
    unrecovered on any substrate. *)

val pp : Format.formatter -> t -> unit
