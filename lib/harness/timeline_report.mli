(** The workflow behind [wavefront timeline]: reconstruct per-rank x
    per-wave timelines of the same configuration from the observed engine,
    the analytic term schedule ({!Wrun.Batched}) and optionally the real
    shared-memory kernel, and attribute the closed form's error wave by
    wave. *)

open Wavefront_core

type t = {
  observed : Obs.Timeline.t;  (** the selected engine's run *)
  model : Obs.Timeline.t;
      (** the analytic term schedule: {!Wrun.Batched.run_timeline} with the
          bus off *)
  real : Obs.Timeline.t option;  (** shared-memory Domains run *)
  divergence : Divergence.t;
  sim : Engine.outcome;
  t_iteration : float;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report (GC, CPU, RSS) per
          stage: simulate / model / real / analyze *)
}

val run :
  ?real:bool ->
  ?model_bus:bool ->
  ?engine:Engine.t ->
  ?capacity:int ->
  Plugplay.config ->
  App_params.t ->
  t
(** One iteration. [model_bus] (default [true]) keeps the simulator's
    shared-bus contention on; switch it off (with single-core nodes and an
    eager-sized configuration) and the observed and model timelines
    coincide to float precision — the cross-substrate identity the tests
    assert. [engine] (default {!Engine.Event}) selects the observed
    substrate; with {!Engine.Batched} the observed side is the model's own
    engine, so the two timelines coincide whenever the bus layer stays
    silent (single-core nodes or [model_bus] off). [capacity] bounds the
    observed and real tracers; the model timeline is assembled from cells
    and never drops. *)

val pp : ?metric:Obs.Timeline.metric -> Format.formatter -> t -> unit

val to_json : t -> string
(** Schema ["wavefront-timeline-report/v1"], embedding the timelines'
    own documents. *)

val to_csv : t -> string
