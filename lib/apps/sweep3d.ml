(* Sweep3D, the LANL ASC particle-transport benchmark (paper Table 3 column).

   Structure: 8 sweeps, one per octant, two consecutive sweeps per corner of
   the 2-D processor grid; nfull = 2, ndiag = 2 (Figure 2(b)). The code
   computes mmi of the mmo angles of an mk-cell-high tile before
   communicating, giving an effective tile height Htile = mk * mmi / mmo, and
   performs two all-reduce operations at the end of each iteration.
   Boundary messages carry 8 bytes per angle per boundary cell.

   Wg is a measured input. The default below is calibrated so that model
   outputs land in the ranges the paper's figures report for the XT4 (see
   EXPERIMENTS.md); override it with a value measured by [Kernels] to model
   the local machine. *)

let default_wg = 0.6 (* us per cell for all mmo = 6 angles *)
let default_mmo = 6
let default_mmi = 3
let default_mk = 4 (* Htile = mk * mmi / mmo = 2, the paper's preferred value *)
let default_iterations = 120 (* per time step; paper Section 5 *)

let params ?(wg = default_wg) ?(mmi = default_mmi) ?(mmo = default_mmo)
    ?(mk = default_mk) ?(iterations = default_iterations) grid =
  let htile = Wgrid.Tile.htile_sweep3d ~mk ~mmi ~mmo in
  let bytes_per_cell = 8.0 *. float_of_int mmo in
  Wavefront_core.App_params.v ~name:"Sweep3D" ~grid ~wg ~htile
    ~schedule:Sweeps.Schedule.sweep3d ~bytes_per_cell_ew:bytes_per_cell
    ~bytes_per_cell_ns:bytes_per_cell
    ~nonwavefront:
      (Allreduce { count = 2; msg_size = Loggp.Allreduce.default_msg_size })
    ~iterations ()

(* The paper's two LANL problem sizes of interest (Section 5). *)
let p20m ?wg ?mmi ?mmo ?mk ?iterations () =
  params ?wg ?mmi ?mmo ?mk ?iterations Wgrid.Data_grid.sweep3d_20m

let p1b ?wg ?mmi ?mmo ?mk ?iterations () =
  params ?wg ?mmi ?mmo ?mk ?iterations Wgrid.Data_grid.sweep3d_1b

(* The fixed per-processor problem size of the pipeline-fill study
   (Figure 12): 4 x 4 x 1000 cells per processor. *)
let weak_4x4x1000 ?wg ?mmi ?mmo ?mk ?iterations ~cores () =
  let pg = Wgrid.Proc_grid.of_cores cores in
  let grid =
    Wgrid.Data_grid.v ~nx:(4 * pg.cols) ~ny:(4 * pg.rows) ~nz:1000
  in
  params ?wg ?mmi ?mmo ?mk ?iterations grid
