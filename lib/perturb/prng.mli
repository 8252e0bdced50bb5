(** SplitMix64 pseudo-random streams for the perturbation layer.

    Deterministic by construction — the sequence depends only on
    [(seed, stream)], never on the compiler's [Random] implementation — so
    the same perturbation spec draws the same delays in the simulator, the
    batched engine and the real runtime, on any OCaml version. *)

type t

val create : seed:int -> stream:int -> t
(** An independent stream; perturbation models use one per rank. *)

val next : t -> int64
val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float
(** [uniform t hi] is uniform in [0, hi). *)

val exponential : t -> float -> float
(** Exponential with the given mean (inversion method). *)

val bernoulli : t -> float -> bool
