(* The one wavefront program (paper Figure 4), written against the
   substrate interface.

   Every rank runs, for each sweep of the schedule and each tile of its
   stack: pre-compute, blocking receive of the two upstream faces, compute
   the tile, send the two downstream faces — then the application's
   non-wavefront operations at the end of each iteration. The sweep
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

type config = {
  pg : Proc_grid.t;
  grid : Data_grid.t;
  schedule : Sweeps.Schedule.t;
  nonwavefront : Wavefront_core.App_params.nonwavefront;
  msg_ew : int;
  msg_ns : int;
  tiling : tiling;
  iterations : int;
}

let v ?(iterations = 1) ?tiling:tl ~pg ~grid ~schedule ~nonwavefront ~msg_ew
    ~msg_ns ~htile () =
  if iterations < 1 then invalid_arg "Program.v: iterations must be >= 1";
  let tiling =
    match tl with Some t -> t | None -> tiling ~nz:grid.Data_grid.nz ~htile
  in
  { pg; grid; schedule; nonwavefront; msg_ew; msg_ns; tiling; iterations }

let of_app ?iterations ?tiling pg (app : Wavefront_core.App_params.t) =
  v ?iterations ?tiling ~pg ~grid:app.grid ~schedule:app.schedule
    ~nonwavefront:app.nonwavefront
    ~msg_ew:(Wavefront_core.App_params.message_size_ew app pg)
    ~msg_ns:(Wavefront_core.App_params.message_size_ns app pg)
    ~htile:app.htile ()

(* The non-wavefront section. The halo exchange proceeds one direction at a
   time — everyone sends east and receives from the west, then the reverse,
   then the same for north/south — to stay deadlock-free on blocking
   substrates. *)
let epilogue_at (type st p) ((module S) : (st, p) Substrate.s) (s : st) cfg
    rank (i, j) =
  match cfg.nonwavefront with
  | Wavefront_core.App_params.No_op -> ()
  | Fixed t -> S.fixed_work s ~rank t
  | Allreduce { count; msg_size } -> S.allreduce s ~rank ~count ~msg_size
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      let pg = cfg.pg in
      let nz = float_of_int cfg.grid.Data_grid.nz in
      S.stencil_compute s ~rank ~wg_stencil;
      let face extent =
        Decomp.message_size ~bytes_per_cell:halo_bytes_per_cell ~htile:nz
          ~extent
      in
      let ew = face (Decomp.cells_y cfg.grid pg) in
      let ns = face (Decomp.cells_x cfg.grid pg) in
      let exchange (di, dj) bytes =
        let neighbour p =
          if Proc_grid.contains pg p then Some (Proc_grid.rank pg p) else None
        in
        S.halo s ~rank
          ~dst:(neighbour (i + di, j + dj))
          ~src:(neighbour (i - di, j - dj))
          ~bytes
      in
      exchange (1, 0) ew;
      exchange (-1, 0) ew;
      exchange (0, 1) ns;
      exchange (0, -1) ns

let epilogue (type st p) ((module S) : (st, p) Substrate.s) (s : st) cfg rank
    =
  epilogue_at (module S) s cfg rank (Proc_grid.coords cfg.pg rank)

(* Global wave index of a tile step: one wave per tile compute, counted
   across sweeps and iterations — the clock the checkpoint interval ticks
   on, and the per-rank tile counter [Perturb.Model.before_compute]
   advances. *)
let wave_of cfg (p : Substrate.position) =
  let nsweeps = List.length (Sweeps.Schedule.sweeps cfg.schedule) in
  ((((p.iteration - 1) * nsweeps) + p.sweep) * cfg.tiling.ntiles) + p.tile

let waves cfg =
  cfg.iterations
  * List.length (Sweeps.Schedule.sweeps cfg.schedule)
  * cfg.tiling.ntiles

(* One rank's tiles [tile0, ntiles) of one sweep. Nothing is allocated:
   the four neighbours are resolved by rank arithmetic once per call (-1
   off the grid), and each tile step's position goes to [tile_begin] as
   its fields. *)
let run_sweep (type st p) ((module S) : (st, p) Substrate.s) (s : st) cfg
    ~rank ~iteration ~sweep ~dir ~tile0 =
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
  for iteration = from.iteration to cfg.iterations do
    List.iteri
      (fun sweep sw ->
        if iteration > from.iteration || sweep >= from.sweep then begin
          let tile0 =
            if iteration = from.iteration && sweep = from.sweep then from.tile
            else 0
          in
          run_sweep (module S) s cfg ~rank ~iteration ~sweep
            ~dir:(flow cfg.pg sw) ~tile0
        end)
      sweeps;
    epilogue (module S) s cfg rank
  done;
  S.finish s ~rank
