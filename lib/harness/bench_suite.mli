(** The continuous-benchmarking suite [wavefront bench] runs: named
    thunks covering the model, simulator, dataflow validator, kernels and
    observability layers. Case names are stable identifiers the baseline
    comparison matches on. *)

type case = {
  name : string;
  quick : bool;  (** part of the fast CI subset *)
  repeats : int option;
      (** override the runner's repetition count — the multi-second
          batched scale cases run few repetitions *)
  f : unit -> unit;
}

val cases : ?quick:bool -> unit -> case list
(** [quick] (default false) keeps only the fast CI subset. *)

val scale_domains : int
(** Domains the sharded scale case runs with on this host
    ([Domain.recommended_domain_count]) — recorded in the report
    metadata so cross-host baseline comparisons know the parallelism
    behind run/batched-bus-64k-sharded. *)
