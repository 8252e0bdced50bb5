(** LU application parameters (paper Table 3). *)

val params :
  ?wg:float -> ?wg_pre:float -> ?wg_stencil:float -> ?iterations:int ->
  Wgrid.Data_grid.t -> Wavefront_core.App_params.t
(** Table 3's LU column: 2 fully-completing sweeps, Htile = 1, a per-cell
    pre-calculation before the receives, 40-byte-per-cell boundary messages,
    and a four-point stencil between iterations. *)

type cls = A | B | C | D | E
(** The NAS-LU problem classes. *)

val of_class :
  ?wg:float -> ?wg_pre:float -> ?wg_stencil:float -> ?iterations:int ->
  cls -> Wavefront_core.App_params.t

val class_e :
  ?wg:float -> ?wg_pre:float -> ?wg_stencil:float -> ?iterations:int ->
  unit -> Wavefront_core.App_params.t
(** The 1000^3 problem used throughout the experiments (close to class E's
    1020^3 but cube-divisible by the power-of-two decompositions). *)
