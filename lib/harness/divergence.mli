(** Wave-by-wave model-error attribution.

    Aligns the analytic term schedule (a batched-engine timeline) against
    an observed run's timeline on the observed last-finishing rank and
    decomposes the closed form's total error
    [gap = T_iteration - elapsed] into folding + ramp + per-bucket deltas
    + tail. The decomposition is exact by construction: [attributed]
    equals [gap] to float precision. *)

type t = {
  rank : int;  (** the observed last finisher everything is measured on *)
  t_iteration : float;
  elapsed : float;
  gap : float;  (** [t_iteration - elapsed], the model's total error *)
  folding : float;
      (** closed form vs the term schedule's makespan for [rank] *)
  ramp : float;  (** first-span start skew, model - observed *)
  tail : float;  (** observed finish of [rank] vs the run's elapsed *)
  terms : (string * float) list;
      (** compute / send / recv / wait / other / idle deltas
          (model - observed), summed over every wave column *)
  per_wave : float array;  (** per-column window-width delta *)
  attributed : float;  (** sum of all parts; equals [gap] *)
}

val analyze :
  model:Obs.Timeline.t ->
  observed:Obs.Timeline.t ->
  t_iteration:float ->
  elapsed:float ->
  t

val pp : Format.formatter -> t -> unit
