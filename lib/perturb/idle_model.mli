(** The closed-form idle-wave term: what an injected stall of [delta] us
    does to a tied wavefront pipeline (Afzal, Hager & Wellein,
    arXiv:2103.03175).

    The model is parameterized by the pipeline's two silent-system time
    constants — the wall-clock cost of one rank hop ([hop_cost], the LogGP
    link cost plus a tile compute; see [Wrun.Costs.hop_latency]) and the
    per-wave period ([wave_period], the same terms minus the message
    flight time) — plus the expected background lateness per wave
    ([noise_mean], us), which damps the wave. On a silent system the wave
    propagates undamped at one hop per [hop_cost] us; with background
    noise the amplitude decays exponentially at [noise_mean / delta] per
    hop to first order. *)

type t

val of_spec :
  ?work:float -> Spec.t -> hop_cost:float -> wave_period:float -> t option
(** The model for the first [pulse] clause of the spec, or [None] when the
    spec has no idle-wave source. [work] is the unperturbed tile compute
    time in us, used to turn the spec's fractional compute-noise clause
    into the absolute [noise_mean] (plus the periodic clause's per-wave
    mean). *)

val delta : t -> float
val origin : t -> int * int  (** (rank, wave) of the injected stall *)

val hop_cost : t -> float
val wave_period : t -> float

val speed : t -> float
(** Silent-system propagation speed, ranks per us: [1 / hop_cost]. *)

val ranks_per_wave : t -> float
(** The classical idle-wave speed in pipeline units:
    [wave_period / hop_cost]. *)

val decay : t -> float
(** First-order exponential decay rate per hop, [noise_mean / delta];
    0 on a silent system or for a zero-amplitude pulse. *)
