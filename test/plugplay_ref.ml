(* A literal transcription of the plug-and-play model's equations
   (r1a)-(r5), the reference the optimised [Plugplay.Eval] is held to.

   Nothing here is hoisted: the full StartP grid is materialised, every
   cell of (r2b) probes [Cmp.link_locality] for each of its four
   communication terms and prices them through [Comm.*] on the spot, and
   the two candidate start times meet in [Float.max]. It is slow and
   allocates per cell, which is the point — it shares no table, buffer
   or shortcut with the evaluator under test. Only the non-wavefront
   term and the Table 6 bus coefficients, neither of which touches the
   recurrence, come from [Plugplay]. *)

open Wavefront_core
open Wgrid
module Comm = Loggp.Comm_model

type t = {
  w : float;
  w_pre : float;
  t_diagfill : float;
  t_fullfill : float;
  t_stack : float;
  t_iteration : float;
}

(* (r2a)/(r2b): StartP row-major, core (i,j) at index (j-1)*cols + (i-1). *)
let start_times (cfg : Plugplay.config) ~w ~w_pre ~msg_ew ~msg_ns =
  let { Proc_grid.cols; rows } = cfg.pgrid in
  let start = Array.make (cols * rows) 0.0 in
  let idx i j = ((j - 1) * cols) + (i - 1) in
  let locality src dir = Cmp.link_locality cfg.cmp ~src dir in
  for j = 1 to rows do
    for i = 1 to cols do
      if i = 1 && j = 1 then start.(idx 1 1) <- w_pre
      else begin
        let from_west =
          if i = 1 then neg_infinity
          else
            let arrive = Comm.total cfg.platform (locality (i - 1, j) E) msg_ew in
            let recv_north =
              if j = 1 then 0.0
              else Comm.receive cfg.platform (locality (i, j - 1) S) msg_ns
            in
            start.(idx (i - 1) j) +. w +. arrive +. recv_north
        in
        let from_north =
          if j = 1 then neg_infinity
          else
            let send_east =
              if i = cols then 0.0
              else Comm.send cfg.platform (locality (i, j - 1) E) msg_ew
            in
            let arrive = Comm.total cfg.platform (locality (i, j - 1) S) msg_ns in
            start.(idx i (j - 1)) +. w +. send_east +. arrive
        in
        start.(idx i j) <- Float.max from_west from_north
      end
    done
  done;
  start

let iteration (app : App_params.t) (cfg : Plugplay.config) =
  let pg = cfg.pgrid in
  let cells_tile = Decomp.cells_per_tile app.grid pg ~htile:app.htile in
  let w = app.wg *. cells_tile (* r1b *) in
  let w_pre = app.wg_pre *. cells_tile (* r1a *) in
  let msg_ew = App_params.message_size_ew app pg in
  let msg_ns = App_params.message_size_ns app pg in
  let start = start_times cfg ~w ~w_pre ~msg_ew ~msg_ns in
  let at i j = start.(((j - 1) * pg.cols) + (i - 1)) in
  let t_diagfill = at 1 pg.rows (* r3a *) in
  let t_fullfill = at pg.cols pg.rows (* r3b *) in
  (* (r4): off-node communication plus the Table 6 bus interference. *)
  let off = cfg.platform.offnode in
  let coeff_ew, coeff_ns =
    if cfg.contention then Plugplay.contention_coeffs cfg.cmp else (0.0, 0.0)
  in
  let i_ew = coeff_ew *. Comm.contention_i cfg.platform.onchip msg_ew in
  let i_ns = coeff_ns *. Comm.contention_i cfg.platform.onchip msg_ns in
  let sync =
    if cfg.sync_terms then
      float_of_int (pg.rows - 1 + max 0 (pg.cols - 2)) *. off.l
    else 0.0
  in
  let per_tile =
    Comm.receive_offnode off msg_ew +. i_ew
    +. Comm.receive_offnode off msg_ns +. i_ns
    +. w
    +. Comm.send_offnode off msg_ew +. i_ew
    +. Comm.send_offnode off msg_ns +. i_ns
    +. w_pre +. sync
  in
  let ntiles = Tile.ntiles ~nz:app.grid.nz ~htile:app.htile in
  let t_stack = (per_tile *. ntiles) -. w_pre in
  let c = App_params.counts app in
  let t_iteration =
    (float_of_int c.ndiag *. t_diagfill)
    +. (float_of_int c.nfull *. t_fullfill)
    +. (float_of_int c.nsweeps *. t_stack)
    +. Plugplay.nonwavefront_time app cfg
  in
  { w; w_pre; t_diagfill; t_fullfill; t_stack; t_iteration }
