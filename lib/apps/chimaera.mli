(** Chimaera application parameters (paper Table 3). *)

val params :
  ?wg:float -> ?htile:float -> ?iterations:int -> Wgrid.Data_grid.t ->
  Wavefront_core.App_params.t
(** Table 3's Chimaera column: 8 sweeps (nfull = 4, ndiag = 2), Htile = 1 by
    default ([?htile] models the tiling parameter its architects are adding,
    Section 5.1), one all-reduce per iteration. *)

val p240 :
  ?wg:float -> ?htile:float -> ?iterations:int -> unit ->
  Wavefront_core.App_params.t
(** The 240^3 benchmark problem (419 iterations per time step). *)

val p240_tall :
  ?wg:float -> ?htile:float -> ?iterations:int -> unit ->
  Wavefront_core.App_params.t
(** The 240 x 240 x 960 AWE size of interest. *)
