(** Idle-wave front detection, propagation-speed and decay measurement
    over a {!Timeline} report.

    An injected delay (a "pulse") makes its source rank's cell *busier*
    and deposits *stall* time (blocking wait + uncovered idle) on every
    rank the resulting idle wave reaches. {!detect} measures per-cell
    excess of both signals — against a control run of the same
    configuration when one is supplied (exact on the deterministic
    substrates), else against each rank's own median — then locates the
    origin, thresholds the per-rank fronts, and least-squares-fits onset
    time and log-amplitude against hop distance in both travel
    directions. On a silent system the fitted hop latency equals the
    LogGP hop cost of {!Perturb.Idle_model} to float precision. *)

type front = {
  rank : int;
  lead_wave : int;  (** first wave whose excess stall crosses the threshold *)
  trail_wave : int;  (** last such wave *)
  onset : float;  (** [t_start] of the leading cell, us *)
  amplitude : float;  (** max excess stall across the crossing cells, us *)
}

type fit = {
  points : int;  (** fronts the fit used; [None] fit below 2 *)
  hop_latency : float;  (** us of wall-clock per rank hop (LSQ slope) *)
  speed : float;  (** ranks per us: [1 /. hop_latency] ([0.] if degenerate) *)
  ranks_per_wave : float;  (** [wave_period /. hop_latency] *)
  decay : float;  (** per-hop exponential amplitude decay rate, [>= 0.] *)
}

type t = {
  origin : (int * int) option;  (** (rank, wave) of the delay source *)
  delta : float;  (** measured amplitude at the origin, us *)
  wave_period : float;  (** median non-empty cell width, us *)
  threshold : float;  (** absolute front threshold applied, us *)
  fronts : front list;  (** ascending rank; the origin rank is excluded *)
  forward : fit option;
      (** fitted over ranks above the origin; boundary ranks (first and
          last) carry fronts but are excluded from both fits — missing a
          neighbor on one side, their steady-state stagger differs from
          the interior hop cost *)
  backward : fit option;  (** fitted over ranks below the origin *)
}

val detect :
  ?baseline:Timeline.t -> ?distance:(src:int -> dst:int -> int) ->
  ?rel_threshold:float -> ?min_delta:float -> Timeline.t -> t
(** [baseline] is the control run's timeline; it is used cell-for-cell
    when its shape matches, and ignored otherwise. [distance] is the
    signed hop distance between two ranks (default [dst - src], exact on
    a chain; pass the wavefront-diagonal distance for a 2-D grid) — it
    only affects the direction split and the fits, not front detection.
    [rel_threshold]
    (default [0.5]) sets the front threshold as a fraction of the
    measured origin amplitude; [min_delta] (default [0.5] us) is the
    smallest excess-busy maximum accepted as an origin — below it the
    result has [origin = None] and no fronts, which is also what an
    empty ([ranks = 0]) timeline yields. *)

val mark : t -> rank:int -> col:int -> char option
(** Overlay for {!Timeline.render}: ['O'] on the origin cell, ['>'] on
    each front's leading edge. *)

val pp : Format.formatter -> t -> unit
