(** Robust summary statistics for benchmark samples.

    Median / MAD summaries and seeded percentile-bootstrap confidence
    intervals; everything is deterministic for a given seed. All
    functions raise [Invalid_argument] on an empty array. *)

val quantile : float array -> float -> float
(** Linear-interpolation quantile, [q] in [[0, 1]]. *)

val median : float array -> float
val mean : float array -> float

val mad : float array -> float
(** Median absolute deviation. *)

val bootstrap_ci :
  ?seed:int ->
  ?resamples:int ->
  ?confidence:float ->
  ?estimator:(float array -> float) ->
  float array ->
  float * float
(** [(lo, hi)] percentile-bootstrap confidence interval (default 95%,
    1000 resamples) of [estimator] (default {!median}). *)
