(** The one wavefront program (paper Figure 4), written against the
    {!Substrate} interface and shared by every backend: the event-level
    simulator, the shared-memory runtime with real payloads, and the
    reference dataflow scheduler; the batched engine runs its tile loop
    ({!run_sweep}) and resolves its non-wavefront section op by op. It
    owns the per-tile receive/compute/send loop, the sweep flow
    directions, the Htile stacking and every [App_params.nonwavefront]
    variant, which {!v} writes out once as a list of {!epilogue_op}. *)

open Wgrid

val flow : Proc_grid.t -> Sweeps.Schedule.sweep -> int * int * int
(** Downstream (dx, dy, dz) of a sweep: (dx, dy) from its origin corner,
    dz from its z direction. *)

type tiling = { ntiles : int; h_of : int -> int }
(** How a rank's Nz-plane stack is cut: [ntiles] tiles, tile [t] holding
    [h_of t] planes, for [t] in [[0, ntiles)]. *)

val tiling : nz:int -> htile:float -> tiling
(** The model's convention: [ceil (nz / htile)] tiles with cumulative
    real-valued boundaries (Table 3's Htile may be fractional). Every
    tile's plane count is computed here, once; [h_of] only reads it, so
    the tile loop does no float arithmetic for it. *)

val tiling_int : nz:int -> htile:int -> tiling
(** The executable kernels' convention: [htile] whole planes per tile,
    short last tile — {!Kernels.Transport}'s layout. Equal to {!tiling}
    when [htile] is integral, and likewise computed once. *)

type epilogue_op =
  | Local_work of float  (** work local to the rank, already in us *)
  | Halo of { dx : int; dy : int; bytes : int }
      (** one direction of a halo exchange: every rank sends [bytes] to
          its neighbour at (dx, dy) and receives from the one at
          (-dx, -dy) *)
  | Allreduce of { count : int; msg_size : int }
      (** [count] back-to-back all-reduces of [msg_size] bytes *)
(** One operation of the non-wavefront section (Table 3's
    Tnonwavefront), the same for every rank. *)

type config = {
  pg : Proc_grid.t;
  grid : Data_grid.t;
  schedule : Sweeps.Schedule.t;
  epilogue : epilogue_op list;
      (** the non-wavefront section of one iteration, in program order *)
  msg_ew : int;  (** east/west face size in bytes (Table 3) *)
  msg_ns : int;
  tiling : tiling;
  iterations : int;
}

val v :
  ?iterations:int ->
  ?tiling:tiling ->
  pg:Proc_grid.t ->
  grid:Data_grid.t ->
  schedule:Sweeps.Schedule.t ->
  nonwavefront:Wavefront_core.App_params.nonwavefront ->
  msg_ew:int ->
  msg_ns:int ->
  htile:float ->
  unit ->
  config
(** [htile] only determines the default {!tiling}. [nonwavefront] becomes
    the [epilogue] list: [No_op] is empty, [Fixed us] one [Local_work us],
    [Allreduce] one [Allreduce], and a [Stencil] is its [Local_work]
    ([wg_stencil * cells_x * cells_y * nz]) followed by the halos east,
    west, south and north, the x halos carrying the east-west face
    ([cells_y] cells by [nz]) and the y halos the north-south face
    ([cells_x] by [nz]). *)

val of_app :
  ?iterations:int ->
  ?tiling:tiling ->
  Proc_grid.t ->
  Wavefront_core.App_params.t ->
  config
(** The program of a Table 3 application: message sizes and default tiling
    derived from the app's parameters. [iterations] defaults to 1 (one
    wavefront iteration), matching the simulator's historical default, not
    the app's [iterations] field. *)

val peer : config -> int -> dx:int -> dy:int -> int
(** [peer cfg rank ~dx ~dy] is the rank at offset (dx, dy) from [rank] on
    the processor grid, or [-1] off it. *)

val run_sweep :
  ('t, 'p) Substrate.tile_loop ->
  't ->
  config ->
  rank:int ->
  iteration:int ->
  sweep:int ->
  dir:int * int * int ->
  tile0:int ->
  unit
(** One rank's tile loop over tiles [[tile0, ntiles)] of sweep [sweep] of
    iteration [iteration], whose {!flow} is [dir]: [sweep_begin], then
    per tile [tile_begin], [precompute], the two upstream receives,
    [compute] and the two downstream sends. This is the body {!run_rank}
    runs per sweep; a driver that advances ranks sweep by sweep (the
    batched engine) calls it directly, with a [dir] computed once per
    sweep. It needs only the substrate's tile-loop hooks and allocates
    nothing of its own. *)

val run_rank :
  ?from:Substrate.position ->
  ('t, 'p) Substrate.s ->
  't ->
  config ->
  int ->
  unit
(** Execute one rank's program on the given substrate. The caller provides
    the concurrency (simulator processes, domains, or dataflow fibers);
    this function only performs the rank's own blocking sequence: every
    sweep's tile loop, then the [epilogue] operations, each iteration,
    then [finish].

    [from] (default {!Substrate.start_position}) resumes the program at a
    later tile step after a rollback: earlier iterations, sweeps and tiles
    are skipped outright — the substrate must already hold the state a
    checkpoint restored (accumulated block, carried z-face, rewound
    channels). [sweep_begin] still fires for the resumed sweep. Raises
    [Invalid_argument] if the position is out of range. *)
