(** Baseline comparison with a statistical gate: a case is a regression
    only when the two runs' confidence intervals are disjoint and the
    median moved by at least [min_delta_pct] percent. *)

type verdict =
  | Regression
  | Improvement
  | Unchanged
  | Added  (** in the current run only *)
  | Removed  (** in the baseline only *)

type entry = {
  name : string;
  verdict : verdict;
  baseline : Runner.summary option;
  current : Runner.summary option;
  delta_pct : float;
      (** median move, percent of baseline; [nan] if either side absent *)
}

type t = { min_delta_pct : float; entries : entry list }

val compare :
  ?min_delta_pct:float -> baseline:Report.t -> current:Report.t -> unit -> t

val regressions : t -> entry list
val verdict_name : verdict -> string
val pp : Format.formatter -> t -> unit
