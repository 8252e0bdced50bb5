(* The plug-and-play model's application input parameters (paper Table 3).

   These few values are all the model needs to know about a wavefront code:
   the problem size, the measured per-cell computation times (before and
   after the boundary receives), the effective tile height, the sweep
   structure, the boundary-message payload per cell, and what runs between
   the wavefront sweeps of an iteration. *)

open Wgrid

type nonwavefront =
  | No_op  (** nothing between iterations *)
  | Allreduce of { count : int; msg_size : int }
      (** [count] MPI all-reduce operations (Sweep3D performs 2, Chimaera 1) *)
  | Stencil of { wg_stencil : float; halo_bytes_per_cell : float }
      (** LU's four-point stencil between the two sweeps of an iteration:
          [wg_stencil] us of computation per local grid cell plus halo
          exchanges with the four neighbours *)
  | Fixed of float  (** a fixed cost in us, for custom codes *)

type t = {
  name : string;
  grid : Data_grid.t;  (** Nx, Ny, Nz *)
  wg : float;
      (** computation time per data cell (all angles), us — a measured
          quantity in the paper *)
  wg_pre : float;
      (** per-cell computation performed before the boundary receives
          (LU's pre-calculation); 0 for Sweep3D and Chimaera *)
  htile : float;  (** effective tile height in cells (Table 3's Htile) *)
  schedule : Sweeps.Schedule.t;
      (** sweep origins and precedence; determines nsweeps, nfull, ndiag *)
  bytes_per_cell_ew : float;
      (** east/west boundary payload per boundary cell per unit tile height;
          MessageSize_EW = bytes_per_cell_ew * Htile * Ny/m *)
  bytes_per_cell_ns : float;  (** likewise for north/south faces *)
  nonwavefront : nonwavefront;
  iterations : int;  (** wavefront iterations per time step *)
}

(* A NaN passes every [<=] check below, and an infinity makes every
   prediction inf or nan, so each float is checked for finiteness first. *)
let finite what x =
  if not (Float.is_finite x) then
    invalid_arg ("App_params.v: " ^ what ^ " must be finite")

let non_negative what x =
  if x < 0.0 then invalid_arg ("App_params.v: " ^ what ^ " must be >= 0")

(* The most tiles a sweep may have. A tinier height would overflow the
   integer tile count and every wave-indexed table built from it. *)
let max_tiles = 1 lsl 20

let check_tiles fn (grid : Data_grid.t) htile =
  if Float.ceil (float_of_int grid.nz /. htile) > float_of_int max_tiles then
    invalid_arg
      (Printf.sprintf
         "%s: htile must give at most %d tiles per sweep (nz / htile)" fn
         max_tiles)

let v ?(wg_pre = 0.0) ?(nonwavefront = No_op) ?(iterations = 1) ~name ~grid
    ~wg ~htile ~schedule ~bytes_per_cell_ew ~bytes_per_cell_ns () =
  finite "wg" wg;
  finite "wg_pre" wg_pre;
  finite "htile" htile;
  finite "bytes_per_cell_ew" bytes_per_cell_ew;
  finite "bytes_per_cell_ns" bytes_per_cell_ns;
  (match nonwavefront with
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      finite "stencil wg" wg_stencil;
      finite "stencil halo bytes per cell" halo_bytes_per_cell;
      non_negative "stencil wg" wg_stencil;
      if halo_bytes_per_cell <= 0.0 then
        invalid_arg
          "App_params.v: stencil halo bytes per cell must be positive"
  | Fixed us ->
      finite "fixed non-wavefront cost" us;
      non_negative "fixed non-wavefront cost" us
  | Allreduce { count; msg_size } ->
      if count < 0 then
        invalid_arg "App_params.v: allreduce count must be >= 0";
      if msg_size < 0 then
        invalid_arg "App_params.v: allreduce message size must be >= 0"
  | No_op -> ());
  if wg <= 0.0 then invalid_arg "App_params.v: wg must be positive";
  if wg_pre < 0.0 then invalid_arg "App_params.v: wg_pre must be >= 0";
  if htile <= 0.0 then invalid_arg "App_params.v: htile must be positive";
  check_tiles "App_params.v" grid htile;
  if bytes_per_cell_ew <= 0.0 || bytes_per_cell_ns <= 0.0 then
    invalid_arg "App_params.v: message payloads must be positive";
  if iterations < 1 then invalid_arg "App_params.v: iterations must be >= 1";
  {
    name; grid; wg; wg_pre; htile; schedule; bytes_per_cell_ew;
    bytes_per_cell_ns; nonwavefront; iterations;
  }

let with_htile t htile =
  if not (Float.is_finite htile) then
    invalid_arg "App_params.with_htile: htile must be finite";
  if htile <= 0.0 then
    invalid_arg "App_params.with_htile: htile must be positive";
  check_tiles "App_params.with_htile" t.grid htile;
  { t with htile }

let counts t = Sweeps.Schedule.counts t.schedule

(* One wave per tile step of every sweep: the timeline's wave columns per
   iteration under the model's tiling. *)
let waves t =
  Sweeps.Schedule.nsweeps t.schedule
  * Tile.ntiles_int ~nz:t.grid.Data_grid.nz ~htile:t.htile

(* Message sizes in bytes on a given processor grid (Table 3's MessageSize
   rows): the east/west face is Ny/m cells wide, the north/south face Nx/n,
   both Htile cells high. *)
let message_size_ew t pg =
  Decomp.message_size ~bytes_per_cell:t.bytes_per_cell_ew ~htile:t.htile
    ~extent:(Decomp.cells_y t.grid pg)

let message_size_ns t pg =
  Decomp.message_size ~bytes_per_cell:t.bytes_per_cell_ns ~htile:t.htile
    ~extent:(Decomp.cells_x t.grid pg)

let pp_nonwavefront ppf = function
  | No_op -> Fmt.string ppf "none"
  | Allreduce { count; msg_size } ->
      Fmt.pf ppf "%d all-reduce(s) of %dB" count msg_size
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      Fmt.pf ppf "stencil (%g us/cell, %gB/cell halo)" wg_stencil
        halo_bytes_per_cell
  | Fixed t -> Fmt.pf ppf "fixed %g us" t

let pp ppf t =
  let c = counts t in
  Fmt.pf ppf
    "@[<v>%s: grid %a, Wg=%g us, Wg_pre=%g us, Htile=%g,@ nsweeps=%d \
     nfull=%d ndiag=%d, EW=%gB/cell NS=%gB/cell,@ nonwavefront=%a, %d \
     iterations@]"
    t.name Data_grid.pp t.grid t.wg t.wg_pre t.htile c.nsweeps c.nfull
    c.ndiag t.bytes_per_cell_ew t.bytes_per_cell_ns pp_nonwavefront
    t.nonwavefront t.iterations
