(* A sweep-level dataflow evaluation of the whole iteration — a
   first-principles cross-check of the (r5) accounting.

   Where equation (r5) folds the schedule into ndiag/nfull counts, this
   evaluator tracks the actual per-processor finish time of every sweep:
   processor p may start sweep k+1 when it has finished its own stack of
   sweep-k tiles (in-order execution) and when the first boundary values of
   sweep k+1 arrive from upstream. This resolves exactly the cases (r5)
   abstracts — e.g. a Follow-gated sweep whose downstream processors are
   still draining the previous sweep — at the cost of O(nsweeps * P) work
   instead of O(P).

   Agreement between this evaluator, the closed form, and the event-level
   simulator is tested in the suite; the EXT-PIPE experiment tabulates all
   three. *)

open Wgrid
module Comm = Loggp.Comm_model

(* Per-sweep evaluation: given each processor's ready time [finish] from the
   previous sweep, produce the finish times of this sweep. *)
let sweep_finish_times (cfg : Plugplay.config) ~(origin : Proc_grid.corner)
    ~w ~w_pre ~t_stack ~msg_ew ~msg_ns finish =
  let pg = cfg.pgrid in
  let { Proc_grid.cols; rows } = pg in
  let ox, oy = Proc_grid.corner_coords pg origin in
  let dx = if ox = 1 then 1 else -1 in
  let dy = if oy = 1 then 1 else -1 in
  (* Canonical coordinates (ci, cj) count from the sweep origin; actual
     grid coordinates determine ranks and link localities. *)
  let actual ci cj =
    ((if dx > 0 then ci else cols + 1 - ci),
     if dy > 0 then cj else rows + 1 - cj)
  in
  let start = Array.make (cols * rows) 0.0 in
  let idx i j = ((j - 1) * cols) + (i - 1) in
  let locality src dir = Cmp.link_locality cfg.cmp ~src dir in
  let dir_to_me_x = if dx > 0 then Cmp.E else Cmp.W in
  let dir_to_me_y = if dy > 0 then Cmp.S else Cmp.N in
  for cj = 1 to rows do
    for ci = 1 to cols do
      let i, j = actual ci cj in
      let ready = finish.(idx i j) +. w_pre in
      let s =
        if ci = 1 && cj = 1 then ready
        else begin
          let from_x =
            if ci = 1 then neg_infinity
            else begin
              let ui, uj = actual (ci - 1) cj in
              let arrive =
                Comm.total cfg.platform
                  (locality (ui, uj) dir_to_me_x)
                  msg_ew
              in
              let recv_y =
                if cj = 1 then 0.0
                else
                  let pi, pj = actual ci (cj - 1) in
                  Comm.receive cfg.platform (locality (pi, pj) dir_to_me_y) msg_ns
              in
              start.(idx ui uj) +. w +. arrive +. recv_y
            end
          in
          let from_y =
            if cj = 1 then neg_infinity
            else begin
              let ui, uj = actual ci (cj - 1) in
              let send_x =
                if ci = cols then 0.0
                else Comm.send cfg.platform (locality (ui, uj) dir_to_me_x) msg_ew
              in
              let arrive =
                Comm.total cfg.platform (locality (ui, uj) dir_to_me_y) msg_ns
              in
              start.(idx ui uj) +. w +. send_x +. arrive
            end
          in
          Float.max ready (Float.max from_x from_y)
        end
      in
      start.(idx i j) <- s
    done
  done;
  Array.init (cols * rows) (fun k -> start.(k) +. t_stack)

let iteration (app : App_params.t) (cfg : Plugplay.config) =
  let pg = cfg.pgrid in
  let r = Plugplay.iteration app cfg in
  let w = r.w and w_pre = r.w_pre in
  let finish = ref (Array.make (Proc_grid.cores pg) 0.0) in
  List.iter
    (fun (s : Sweeps.Schedule.sweep) ->
      finish :=
        sweep_finish_times cfg ~origin:s.origin ~w ~w_pre ~t_stack:r.t_stack
          ~msg_ew:r.msg_ew ~msg_ns:r.msg_ns !finish)
    (Sweeps.Schedule.sweeps app.schedule);
  let sweeps_end = Array.fold_left Float.max 0.0 !finish in
  sweeps_end +. r.t_nonwavefront

let record_iteration m app cfg =
  let t = iteration app cfg in
  Obs.Metrics.set (Obs.Metrics.gauge m "pipeline.t_iteration") t;
  t
