(** Utilization reporting over a simulated wavefront run: per-rank
    compute/communication/wait fractions, aggregates, and the extremes. *)

type rank_row = {
  rank : int;
  coords : int * int;
  compute_frac : float;
  comm_frac : float;  (** uncontended communication cost *)
  wait_frac : float;  (** blocking on upstream progress / queueing *)
}

type t = {
  elapsed : float;
  mean_compute_frac : float;
  mean_comm_frac : float;
  mean_wait_frac : float;
  most_blocked : rank_row list;
  least_blocked : rank_row list;
}

val of_outcome : ?extremes:int -> Machine.t -> Wavefront_sim.outcome -> t
val pp : t Fmt.t
