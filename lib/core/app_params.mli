(** The plug-and-play model's application input parameters (paper Table 3).

    These few values are all the model needs to know about a wavefront
    code. Times are in microseconds, sizes in bytes. *)

open Wgrid

type nonwavefront =
  | No_op
  | Allreduce of { count : int; msg_size : int }
      (** [count] all-reduces at iteration end (Sweep3D 2, Chimaera 1) *)
  | Stencil of { wg_stencil : float; halo_bytes_per_cell : float }
      (** LU's four-point stencil: per-cell computation plus halo exchange
          with the four neighbours *)
  | Fixed of float
(** The [Tnonwavefront] operations performed between iterations. *)

type t = {
  name : string;
  grid : Data_grid.t;
  wg : float;  (** measured computation time per cell (all angles), us *)
  wg_pre : float;  (** per-cell computation before the boundary receives *)
  htile : float;  (** effective tile height, cells *)
  schedule : Sweeps.Schedule.t;
  bytes_per_cell_ew : float;
      (** east/west payload per boundary cell per unit tile height *)
  bytes_per_cell_ns : float;
  nonwavefront : nonwavefront;
  iterations : int;  (** wavefront iterations per time step *)
}

val v :
  ?wg_pre:float ->
  ?nonwavefront:nonwavefront ->
  ?iterations:int ->
  name:string ->
  grid:Data_grid.t ->
  wg:float ->
  htile:float ->
  schedule:Sweeps.Schedule.t ->
  bytes_per_cell_ew:float ->
  bytes_per_cell_ns:float ->
  unit ->
  t
(** Validates that every float is finite; the positivity of the work,
    tile and payload parameters and of a stencil's halo face; that no
    non-wavefront cost or count is negative; and that [htile] gives at
    most 2^20 = 1,048,576 tiles per sweep ([ceil (nz / htile)]). Raises
    [Invalid_argument] naming the field otherwise. *)

val with_htile : t -> float -> t
(** [t] with another tile height, checked as {!v} checks it: finite,
    positive and at most 2^20 tiles per sweep. *)

val counts : t -> Sweeps.Schedule.counts
(** The schedule's [nsweeps], [nfull], [ndiag] (Table 3). *)

val waves : t -> int
(** Tile steps per rank per iteration, [nsweeps * ceil (Nz / Htile)]: the
    timeline's wave columns and the checkpoint clock's waves per
    iteration under the model's tiling. *)

val message_size_ew : t -> Proc_grid.t -> int
(** [MessageSize_EW = bytes_per_cell_ew * Htile * Ny/m] in bytes, rounded
    up. *)

val message_size_ns : t -> Proc_grid.t -> int

val pp_nonwavefront : nonwavefront Fmt.t
val pp : t Fmt.t
