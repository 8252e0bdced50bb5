(* The one wavefront program (paper Figure 4), written against the
   substrate interface.

   Every rank runs, for each sweep of the schedule and each tile of its
   stack: pre-compute, blocking receive of the two upstream faces, compute
   the tile, send the two downstream faces — then the application's
   non-wavefront section at the end of each iteration: a list of
   operations written out once, when the configuration is built, which
   the blocking substrates perform rank by rank and the batched engine
   resolves across all ranks, operation by operation. The sweep
   precedence behaviour of Figure 2 (Follow/Diagonal/Full gating) is not
   programmed anywhere: it emerges from the blocking receives and the
   per-sweep origin corners, exactly as in the real codes the paper models.

   Which machine this runs on — event-level simulation, OCaml domains with
   real payloads, or the reference dataflow scheduler — is entirely the
   substrate's business. *)

open Wgrid

(* Int-only: a polymorphic min/max is a C call and would accept floats.
   [max] is unused here; it is bound so that no generic one creeps in. *)
let min = Int.min
let max = Int.max [@@warning "-32"]

(* Downstream x/y direction of a sweep, by origin corner: a sweep flows
   away from its origin in both dimensions. *)
let flow_xy (pg : Proc_grid.t) corner =
  let ox, oy = Proc_grid.corner_coords pg corner in
  ((if ox = 1 then 1 else -1), if oy = 1 then 1 else -1)

let flow pg (s : Sweeps.Schedule.sweep) =
  let dx, dy = flow_xy pg s.origin in
  let dz = match s.zdir with `Up -> 1 | `Down -> -1 in
  (dx, dy, dz)

(* How a rank's Nz-plane stack is cut into tiles. The model's Htile is
   real-valued (Sweep3D's mk*mmi/mmo need not be integral), so the plane
   count of tile [t] comes from the cumulative boundaries: tile t covers
   planes [ceil(t*htile), ceil((t+1)*htile)). For integral Htile this is
   exactly the familiar "htile planes per tile, short last tile". The
   heights are computed once, when the tiling is built, so the tile loop
   reads an int array instead of redoing the float arithmetic per tile. *)
type tiling = { ntiles : int; h_of : int -> int }

let of_heights hs = { ntiles = Array.length hs; h_of = (fun t -> hs.(t)) }

let tiling ~nz ~htile =
  if htile <= 0.0 then invalid_arg "Program.tiling: htile must be > 0";
  let bound t = min nz (int_of_float (Float.ceil (htile *. float_of_int t))) in
  of_heights
    (Array.init (Tile.ntiles_int ~nz ~htile) (fun t -> bound (t + 1) - bound t))

let tiling_int ~nz ~htile =
  if htile < 1 then invalid_arg "Program.tiling_int: htile must be >= 1";
  of_heights
    (Array.init ((nz + htile - 1) / htile) (fun t ->
         min htile (nz - (t * htile))))

(* One operation of the non-wavefront section, as every rank performs
   it: local work already priced in microseconds, one direction of a halo
   exchange with the neighbour at (dx, dy), or [count] all-reduces. *)
type epilogue_op =
  | Local_work of float
  | Halo of { dx : int; dy : int; bytes : int }
  | Allreduce of { count : int; msg_size : int }

type config = {
  pg : Proc_grid.t;
  grid : Data_grid.t;
  schedule : Sweeps.Schedule.t;
  epilogue : epilogue_op list;
  msg_ew : int;
  msg_ns : int;
  tiling : tiling;
  iterations : int;
}

(* The non-wavefront section of a Table 3 application, written out once.
   The stencil's halo exchange proceeds one direction at a time — everyone
   sends east and receives from the west, then the reverse, then the same
   for south/north — to stay deadlock-free on blocking substrates. *)
let epilogue_of ~pg ~grid = function
  | Wavefront_core.App_params.No_op -> []
  | Fixed us -> [ Local_work us ]
  | Allreduce { count; msg_size } -> [ Allreduce { count; msg_size } ]
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      let cells_x = Decomp.cells_x grid pg
      and cells_y = Decomp.cells_y grid pg in
      let nz = float_of_int grid.Data_grid.nz in
      let face extent =
        Decomp.message_size ~bytes_per_cell:halo_bytes_per_cell ~htile:nz
          ~extent
      in
      let ew = face cells_y and ns = face cells_x in
      [
        Local_work (wg_stencil *. cells_x *. cells_y *. nz);
        Halo { dx = 1; dy = 0; bytes = ew };
        Halo { dx = -1; dy = 0; bytes = ew };
        Halo { dx = 0; dy = 1; bytes = ns };
        Halo { dx = 0; dy = -1; bytes = ns };
      ]

let v ?(iterations = 1) ?tiling:tl ~pg ~grid ~schedule ~nonwavefront ~msg_ew
    ~msg_ns ~htile () =
  if iterations < 1 then invalid_arg "Program.v: iterations must be >= 1";
  let tiling =
    match tl with Some t -> t | None -> tiling ~nz:grid.Data_grid.nz ~htile
  in
  {
    pg;
    grid;
    schedule;
    epilogue = epilogue_of ~pg ~grid nonwavefront;
    msg_ew;
    msg_ns;
    tiling;
    iterations;
  }

let of_app ?iterations ?tiling pg (app : Wavefront_core.App_params.t) =
  v ?iterations ?tiling ~pg ~grid:app.grid ~schedule:app.schedule
    ~nonwavefront:app.nonwavefront
    ~msg_ew:(Wavefront_core.App_params.message_size_ew app pg)
    ~msg_ns:(Wavefront_core.App_params.message_size_ns app pg)
    ~htile:app.htile ()

(* The rank at (dx, dy) from [rank] on the processor grid, -1 off it. *)
let peer cfg rank ~dx ~dy =
  let cols = cfg.pg.Proc_grid.cols and rows = cfg.pg.Proc_grid.rows in
  let i = (rank mod cols) + dx and j = (rank / cols) + dy in
  if i >= 0 && i < cols && j >= 0 && j < rows then rank + dx + (dy * cols)
  else -1

let epilogue (type st p) ((module S) : (st, p) Substrate.s) (s : st) cfg rank
    =
  List.iter
    (function
      | Local_work us -> S.local_work s ~rank us
      | Halo { dx; dy; bytes } ->
          S.halo s ~rank
            ~dst:(peer cfg rank ~dx ~dy)
            ~src:(peer cfg rank ~dx:(-dx) ~dy:(-dy))
            ~bytes
      | Allreduce { count; msg_size } -> S.allreduce s ~rank ~count ~msg_size)
    cfg.epilogue

(* One rank's tiles [tile0, ntiles) of one sweep. Nothing is allocated:
   the four neighbours are resolved by rank arithmetic once per call (-1
   off the grid), and each tile step's position goes to [tile_begin] as
   its fields. *)
let run_sweep (type st p) ((module S) : (st, p) Substrate.tile_loop) (s : st)
    cfg ~rank ~iteration ~sweep ~dir ~tile0 =
  let cols = cfg.pg.Proc_grid.cols and rows = cfg.pg.Proc_grid.rows in
  let i = (rank mod cols) + 1 and j = (rank / cols) + 1 in
  let dx, dy, _ = dir in
  let src_x = if i - dx >= 1 && i - dx <= cols then rank - dx else -1 in
  let dst_x = if i + dx >= 1 && i + dx <= cols then rank + dx else -1 in
  let src_y =
    if j - dy >= 1 && j - dy <= rows then rank - (dy * cols) else -1
  in
  let dst_y =
    if j + dy >= 1 && j + dy <= rows then rank + (dy * cols) else -1
  in
  let wave_base =
    (((iteration - 1) * Sweeps.Schedule.nsweeps cfg.schedule) + sweep)
    * cfg.tiling.ntiles
  in
  S.sweep_begin s ~rank ~sweep ~dir;
  for tile = tile0 to cfg.tiling.ntiles - 1 do
    let h = cfg.tiling.h_of tile in
    S.tile_begin s ~rank ~iteration ~sweep ~tile ~wave:(wave_base + tile);
    (* Figure 4: LU pre-computes part of the domain before the receives;
       Sweep3D and Chimaera have Wg_pre = 0. *)
    S.precompute s ~rank ~tile;
    let x =
      if src_x >= 0 then
        S.recv s ~rank ~src:src_x ~axis:X ~tile ~h ~bytes:cfg.msg_ew
      else S.boundary s ~rank ~axis:X ~h
    in
    let y =
      if src_y >= 0 then
        S.recv s ~rank ~src:src_y ~axis:Y ~tile ~h ~bytes:cfg.msg_ns
      else S.boundary s ~rank ~axis:Y ~h
    in
    let out_x, out_y = S.compute s ~rank ~dir ~tile ~h ~x ~y in
    if dst_x >= 0 then S.send s ~rank ~dst:dst_x ~axis:X ~tile out_x;
    if dst_y >= 0 then S.send s ~rank ~dst:dst_y ~axis:Y ~tile out_y
  done

let run_rank (type st p) ?(from = Substrate.start_position)
    ((module S) : (st, p) Substrate.s) (s : st) cfg rank =
  let sweeps = Sweeps.Schedule.sweeps cfg.schedule in
  if
    from.iteration < 1
    || from.sweep < 0
    || from.sweep >= List.length sweeps
    || from.tile < 0
    || from.tile >= cfg.tiling.ntiles
  then invalid_arg "Program.run_rank: resume position out of range";
  let tile_loop : (st, p) Substrate.tile_loop = (module S) in
  for iteration = from.iteration to cfg.iterations do
    List.iteri
      (fun sweep sw ->
        if iteration > from.iteration || sweep >= from.sweep then begin
          let tile0 =
            if iteration = from.iteration && sweep = from.sweep then from.tile
            else 0
          in
          run_sweep tile_loop s cfg ~rank ~iteration ~sweep
            ~dir:(flow cfg.pg sw) ~tile0
        end)
      sweeps;
    epilogue (module S) s cfg rank
  done;
  S.finish s ~rank
