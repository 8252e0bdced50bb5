(** The serve daemon's JSON API: request parsing, model evaluation and
    response serialization for [/v1/predict] and [/v1/sweep].

    Malformed input is an [Error] carrying a client-facing message (the
    server turns it into a 400); nothing here raises on hostile bodies.
    Responses are serialized into a caller-owned [Buffer.t] so the
    per-request hot path ({!predict_into}: parse → {!Plugplay.Eval.run}
    → serialize) reuses one buffer per worker — the [serve-predict]
    telemetry target pins that pipeline's minor-heap allocation.

    [/v1/predict] request shape:
    {v
    { "app": { "name": "lu" | "sweep3d" | "chimaera",
               "nx": int, "ny": int, "nz": int,
               "wg"?: number, "htile"?: number, "iterations"?: int },
      "machine": { "platform": "xt4" | "sp2" | "bluegene_l" | "red_storm",
                   "cores": int, "cores_per_node": int },
      "validate"?: bool }
    v}

    [/v1/sweep] replaces ["machine".cores] with explicit design-space
    axes and adds the resilience-policy axis:
    {v
    { "app": ..., "machine": { "platform": ..., "cores_per_node": int },
      "htile": [number, ...],
      "grids": [[cols, rows], ...],
      "k": [int, ...],
      "ckpt_cost"?: number, "restart_cost"?: number, "failures"?: int }
    v} *)

type predict = {
  app : Wavefront_core.App_params.t;
  platform : Loggp.Params.t;  (** already specialized to [cpn] *)
  cfg : Wavefront_core.Plugplay.config;
  cores : int;
  cpn : int;
  validate : bool;  (** caller asked for batched-engine cross-validation *)
}

val parse_predict : string -> (predict, string) result

(** Outcome of the breaker-guarded batched-engine validation. *)
type validation =
  | Not_requested
  | Validated of {
      cores : int;  (** validation grid size (clamped) *)
      engine : float;  (** batched-engine per-iteration time, us *)
      model : float;  (** model [t_iteration] on the same clamped grid *)
      error_pct : float;
    }
  | Degraded of string
      (** validation requested but unavailable (breaker open or the
          dependency failed); the prediction is still served, flagged
          ["degraded": true] *)

val validate_run : ?max_cores:int -> predict -> validation
(** Run the wave-batched engine on the request's configuration, the
    processor grid clamped to [max_cores] (default 64) so a million-core
    prediction costs a bounded validation. Always returns [Validated];
    exceptions escape to the caller (the breaker records them). *)

val eval_predict_into : Buffer.t -> predict -> validation:validation -> unit
(** Clear the buffer and serialize the [wavefront-predict/v1] response:
    the {!Plugplay.Eval} breakdown plus the validation verdict. *)

val predict_into : Buffer.t -> string -> (unit, string) result
(** [parse_predict] + [eval_predict_into ~validation:Not_requested] in
    one call — the pipeline the [serve-predict] telemetry target
    measures. *)

(** {1 Sweep}

    A request describing more than 4096 points is refused (400), the
    admission-control twin of the body-size cap, and so is a grid of more
    than 1_048_576 cores. *)

type sweep

val parse_sweep : string -> (sweep, string) result
val sweep_points : sweep -> int
(** [|htile| * |grids| * |k|], validated [<= 4096]. *)

type point = {
  htile : float;
  cols : int;
  rows : int;
  k : int;  (** checkpoint interval, waves; 0 = recovery off *)
  cores : int;
  t_iter : float;  (** model (r5) per-iteration time, us *)
  overhead : float;  (** expected per-iteration resilience overhead, us *)
  total : float;  (** [t_iter + overhead] *)
}

val run_sweep :
  ?check_every:int ->
  deadline:Deadline.t ->
  sweep ->
  [ `Done of point list | `Expired of int ]
(** Evaluate every point, checking the deadline every [check_every]
    points (default 16) — the cooperative-cancellation checkpoint, so a
    sweep overruns its deadline by at most one checkpoint interval.
    [`Expired n] reports how many points were evaluated before giving
    up (the server answers 504). Each (Htile, grid) pair is evaluated
    once and every K is priced from that result, since the checkpoint
    interval moves only the resilience term; each point's [total] is
    bit-identical to a per-point {!Plugplay.iteration} plus
    {!Perturb.Recover.expected_term}. *)

val pareto : point list -> point list
(** The (cores, total) Pareto frontier: cheapest total at each core
    count, keeping only points no larger configuration beats. Sorted by
    increasing [cores]. *)

val render_sweep_into : Buffer.t -> sweep -> point list -> unit
(** Clear the buffer and serialize the [wavefront-sweep/v1] response:
    all points plus the {!pareto} frontier. *)
