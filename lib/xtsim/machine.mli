(** The simulated XT4-like machine: a 2-D grid of cores packed onto
    multi-core nodes linked by a torus (paper Sections 3 and 4.3). The
    [platform] LogGP parameters are the simulator's ground-truth wire and
    software costs. *)

open Wgrid

type t = {
  platform : Loggp.Params.t;
  pgrid : Proc_grid.t;
  cmp : Cmp.t;
  model_bus : bool;
  l_per_hop : float;
      (** extra latency per torus hop beyond the first; 0 reproduces the
          paper's distance-free L *)
}

val v :
  ?model_bus:bool ->
  ?l_per_hop:float ->
  ?cmp:Cmp.t ->
  Loggp.Params.t ->
  Proc_grid.t ->
  t
(** Defaults: bus contention on, no per-hop latency, core rectangle from the
    platform's cores-per-node. *)

val cores : t -> int
val coords : t -> int -> int * int
val node_count : t -> int
val node_of_rank : t -> int -> int
val locality : t -> src:int -> dst:int -> Loggp.Comm_model.locality

val hops : t -> src:int -> dst:int -> int
(** Torus Manhattan distance between the two ranks' nodes. *)

val latency : t -> src:int -> dst:int -> float
(** End-to-end latency: [L + l_per_hop * (hops - 1)]. *)

val pp : t Fmt.t
