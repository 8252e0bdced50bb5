(** A real discrete-ordinates-style transport kernel: the per-cell,
    per-angle upwind computation performed along each wavefront sweep, used
    to measure the model's Wg input on this machine, as the computation of
    the distributed {!Sweep_exec}, and as the sequential reference the
    distributed result is checked against. *)

type config = {
  angles : int;
  sigma : float;
  source : float;
  boundary : float;
}

val default : config
(** 6 angles, the Sweep3D default. *)

val v :
  ?sigma:float -> ?source:float -> ?boundary:float -> angles:int -> unit ->
  config

val order : len:int -> dir:int -> int -> int

type sweep_state
(** In-progress octant sweep over a local block: per-angle coefficients,
    the z-face carried from tile to tile, and the plane cursor. *)

val sweep_start :
  config ->
  nx:int ->
  ny:int ->
  nz:int ->
  dir:int * int * int ->
  phi:float array ->
  sweep_state
(** Begin a sweep over a local [nx*ny*nz] block, accumulating weighted
    scalar flux into [phi] (cell [(x,y,z)] at [(z*ny + y)*nx + x]). *)

val sweep_tile :
  sweep_state -> h:int -> xface:float array -> yface:float array ->
  float array * float array
(** Compute the next [h] z-planes from the tile's upstream faces (x-face
    layout [(a*ny + y)*h + zz], length [angles*ny*h]; y-face
    [(a*nx + x)*h + zz]); returns the outgoing [(out_x, out_y)] downstream
    faces in the same layouts. Planes are visited in processing order (a
    [dz < 0] sweep starts at the top plane). The substrate-agnostic
    program core drives this as the compute step of the paper's Figure 4. *)

type sweep_mark
(** The tile-to-tile state of a sweep (carried z-face and plane cursor),
    captured at a tile boundary — everything a checkpoint needs beyond
    [phi] to resume the sweep mid-stack. *)

val sweep_capture : sweep_state -> sweep_mark
(** Snapshot the sweep's carried state (the z-face is copied). *)

val sweep_restore : sweep_state -> sweep_mark -> unit
(** Rewind the sweep to a captured mark. Raises [Invalid_argument] if
    the mark comes from a sweep of a different shape. *)

val mark_zbuf : sweep_mark -> float array
val mark_pos : sweep_mark -> int

val mark_of : zbuf:float array -> pos:int -> sweep_mark
(** Rebuild a mark from serialized checkpoint fields (the z-face is
    copied). *)

val boundary_x : config -> ny:int -> h:int -> float array
val boundary_y : config -> nx:int -> h:int -> float array

val sweep_sequential :
  config ->
  nx:int ->
  ny:int ->
  nz:int ->
  dir:int * int * int ->
  htile:int ->
  phi:float array ->
  unit
(** The same sweep over a whole (undecomposed) grid with boundary upstream
    faces: the reference for testing the distributed execution. *)
