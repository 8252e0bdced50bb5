(** Perturbation specifications: seeded noise, link contention, stragglers
    and rank failures, as one deterministic description that every
    substrate (simulator, batched engine, real shared-memory runtime, and
    the clockless dataflow validator for stragglers and failures)
    interprets identically. See the implementation header for the textual
    clause syntax ([seed=42 noise=uniform:0.15 link=0.02:5 straggler=3:250
    fail=5:40 pulse=3:40:500 periodic=16:120 collnoise=80]).

    All perturbations are one-sided — they only ever add time — so model
    and simulated runtimes are monotone in every amplitude. *)

type noise =
  | No_noise
  | Uniform of float
      (** per-tile extra compute fraction, uniform in [0, amplitude) *)
  | Exponential of float  (** per-tile extra compute fraction, this mean *)

type link = {
  prob : float;  (** probability each message is delayed *)
  delay : float;  (** the injected delay, us *)
}

type straggler = {
  rank : int;
  delay : float;  (** extra us this rank loses on every tile *)
}

type failure = {
  rank : int;
  after_tiles : int;  (** the rank dies before computing tile [after_tiles] *)
}

type pulse = {
  rank : int;
  wave : int;
      (** global wave index
          [((iteration - 1) * nsweeps + sweep) * ntiles + tile], as the
          [tile_begin] hook of [Wrun.Substrate] receives it *)
  delay : float;  (** the one-shot injected stall, us *)
}
(** A single injected delay — the idle-wave source scenario of
    Afzal/Hager/Wellein. *)

type periodic = {
  period : int;  (** every [period]-th wave, on every rank *)
  amplitude : float;  (** the injected stall, us *)
}

type t = {
  seed : int;
  noise : noise;
  link : link option;
  stragglers : straggler list;
  failures : failure list;
  pulses : pulse list;
  periodic : periodic option;
  coll_noise : float;
      (** extra us per allreduce call per rank, uniform in [0, coll_noise) *)
}

val zero : t
(** No perturbation at all; running any substrate under [zero] must be
    bitwise identical to not perturbing it. *)

val is_zero : t -> bool

val v :
  ?seed:int ->
  ?noise:noise ->
  ?link:link ->
  ?stragglers:straggler list ->
  ?failures:failure list ->
  ?pulses:pulse list ->
  ?periodic:periodic ->
  ?coll_noise:float ->
  unit ->
  t
(** Validating constructor; raises [Invalid_argument] on a negative or
    non-finite (infinite or NaN) amplitude or delay, a negative rank, wave
    or tile count, a link probability outside [0, 1] (or NaN), or a
    periodic period < 1. {!of_string} applies the same check and reports
    it against the offending clause. *)

val mean_noise_frac : t -> float
(** Expected extra compute fraction per tile, used by the analytic
    estimate. *)

val periodic_mean_per_wave : t -> float
(** Expected extra us per wave per rank from the periodic clause
    (amplitude / period); 0 when absent. Pulses are localized events and
    do not contribute. *)

val max_rank : t -> int
(** Highest rank named by a straggler, failure or pulse clause; [-1] if
    none. *)

type parse_error = {
  clause : string;  (** the offending clause, verbatim *)
  position : int;  (** byte offset of the clause in the input *)
  reason : string;  (** what is wrong with it *)
}

val of_string_loc : string -> (t, parse_error) result
(** As {!of_string}, but a failure carries the offending clause, its
    position in the input and the reason, for callers that want to point
    at the user's text. *)

val of_string : string -> (t, [ `Msg of string ]) result
(** Errors render a {!parse_error} as its clause, byte offset and
    reason. *)

val to_string : t -> string
val pp : t Fmt.t
