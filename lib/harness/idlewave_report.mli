(** The workflow behind [wavefront idlewave]: a control/perturbed run
    pair on the observed engine and on the batched engine's analytic term
    schedule (optionally on the real shared-memory kernel), the
    differential idle-wave front detector ({!Obs.Idle_wave}) on each pair,
    and a reconciliation of the measured propagation speed and decay
    against the closed-form {!Perturb.Idle_model} built from the same
    LogGP numbers. With single-core nodes and the bus model off the
    simulator and batched timelines are identical cell for cell, so their
    detectors — and the analytic hop cost — agree to float precision. *)

open Wavefront_core

type t = {
  spec : Perturb.Spec.t;
  model : Perturb.Idle_model.t option;
      (** the closed-form prediction; [None] when the spec has no pulse *)
  sim : Obs.Idle_wave.t;  (** detector on the observed engine pair *)
  batched : Obs.Idle_wave.t;
      (** detector on the batched pair ({!Wrun.Batched.run_timeline}, bus
          off) *)
  real : Obs.Idle_wave.t option;  (** detector on the real kernel pair *)
  timeline_base : Obs.Timeline.t;  (** control simulator run *)
  timeline : Obs.Timeline.t;  (** perturbed simulator run *)
  identity : bool;
      (** perturbed simulator and batched timelines equal within 1e-6 *)
  reconcile : Table.t;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report (GC, CPU, RSS) per
          stage: simulate / batched / real / analyze *)
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
(** Evaluate one (configuration, application, spec) triple. [real]
    (default off) also executes the shared-memory kernel pair on one
    domain per rank — use small core counts. [model_bus] (default on)
    keeps the simulator's bus contention; switch it off (with single-core
    nodes) for the exact sim/batched identity. [engine] (default
    {!Engine.Event}) selects the observed substrate; {!Engine.Batched}
    makes the observed side the model's own engine, so the identity
    holds whenever the bus layer stays silent. *)

val main_fit : Obs.Idle_wave.t -> Obs.Idle_wave.fit option
(** The fit in the direction the wave travelled (forward when present,
    else backward). *)

val speed_error : t -> float option
(** Relative disagreement between the analytic hop cost and the
    simulator's fitted hop latency, when both exist. *)

val exit_status : ?fail_on_mismatch:bool -> t -> int
(** 0 clean; 3 when the spec has a pulse but the detector found no
    origin, or — with [fail_on_mismatch] — when the sim/batched identity
    broke or {!speed_error} exceeds 5%. *)

val pp : Format.formatter -> t -> unit
(** The reconciliation table, each detector's summary, and the perturbed
    wait heatmap with the detected wave overlaid ([O] origin, [>] front
    leading edges). *)

val to_json : t -> string
val to_csv : t -> string
