(** Sweep3D application parameters (paper Table 3). *)

val default_wg : float
(** Calibrated per-cell (all-angles) compute time; see DESIGN.md Section 5. *)

val default_mmo : int
val default_mmi : int
val default_mk : int

val params :
  ?wg:float ->
  ?mmi:int ->
  ?mmo:int ->
  ?mk:int ->
  ?iterations:int ->
  Wgrid.Data_grid.t ->
  Wavefront_core.App_params.t
(** Table 3's Sweep3D column: 8 sweeps (nfull = 2, ndiag = 2),
    [Htile = mk * mmi / mmo], 8 bytes per angle per boundary cell, two
    all-reduces per iteration. *)

val p20m :
  ?wg:float -> ?mmi:int -> ?mmo:int -> ?mk:int -> ?iterations:int -> unit ->
  Wavefront_core.App_params.t
(** The ~20-million-cell LANL problem. *)

val p1b :
  ?wg:float -> ?mmi:int -> ?mmo:int -> ?mk:int -> ?iterations:int -> unit ->
  Wavefront_core.App_params.t
(** The 10^9-cell LANL problem. *)

val weak_4x4x1000 :
  ?wg:float -> ?mmi:int -> ?mmo:int -> ?mk:int -> ?iterations:int ->
  cores:int -> unit -> Wavefront_core.App_params.t
(** 4 x 4 x 1000 cells per processor (Figure 12's weak-scaling workload). *)
