(** Per-rank memory footprint of a wavefront code: persistent grid state,
    live face buffers, and eager-protocol slack. Complements the time model
    in partition-sizing decisions. *)

open Wgrid

type t

val transport : angles:int -> t
(** 8 bytes per angle plus the scalar flux per cell. *)

val lu : t
(** Five 8-byte flow variables per cell. *)

val bytes_per_rank : t -> App_params.t -> Proc_grid.t -> float
val bytes_per_node : t -> App_params.t -> Proc_grid.t -> cmp:Cmp.t -> float

val min_cores_for :
  t -> App_params.t -> bytes_budget:float -> max_cores:int -> int option
(** Smallest power-of-two core count whose per-rank footprint fits the
    budget. *)

val pp_bytes : float Fmt.t
