(** Engine selection for the observed (simulated) side of the report
    workflows.

    Every report pairs an observed run against the analytic term
    schedule, which {!Wrun.Batched} evaluates. [Event] is the
    event-level simulator (fibers, per-event heap, bus contention);
    [Batched] is the wave-batched flat-array engine itself, which scales
    to million-rank grids. Reports accept the choice as [?engine] and
    otherwise run unchanged. *)

type t = Event | Batched

val to_string : t -> string
val all : (string * t) list
(** Name/value pairs for a [Cmdliner.Arg.enum]. *)

type outcome = {
  elapsed : float;  (** makespan, us *)
  per_iteration : float;
  completed : bool;
      (** all ranks finished; [false] when a killed rank starved the rest *)
  failed : int list;  (** ranks killed by the perturbation spec, ascending *)
  recovered : int list;
      (** killed ranks revived by the checkpoint policy, ascending *)
  checkpoints : int;  (** snapshots taken across all ranks *)
}
(** What both engines produce and the reports read. *)

val observed_run :
  ?model_bus:bool ->
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  ?obs:Obs.Tracer.t ->
  ?max_ranks:int ->
  t ->
  Wavefront_core.Plugplay.config ->
  Wavefront_core.App_params.t ->
  outcome
(** One observed run of the configuration on the selected engine.

    [Event] builds the machine from the config and delegates to
    {!Xtsim.Wavefront_sim.run}; [max_ranks] and [model_bus] apply, and
    {!Xtsim.Wavefront_sim.Rank_ceiling} escapes to the caller past the
    ceiling. [Batched] prices the same program with
    {!Wrun.Costs.loggp}[ ~model_bus] and runs {!Wrun.Batched.run}:
    [model_bus] (default [true]) enables the closed-form Table-6 bus
    layer on multi-core configs — the batched engine charges the
    per-axis interference term per tile-loop operation where the event
    simulator queues a per-node bus clock, so on multi-core nodes the
    two agree only within the tolerance the differential suite pins
    (to float precision with the bus off or single-core nodes).
    [max_ranks] does not apply (the batched engine has no rank
    ceiling). Both engines tag the same [perturb.*]/[recover.*] spans
    on [obs]. *)
