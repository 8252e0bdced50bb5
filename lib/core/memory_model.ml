(* A per-rank memory-footprint model for wavefront codes: grid state, the
   angular face buffers exchanged each tile, and the MPI buffering the
   eager protocol implies. Procurement studies (paper Section 5.2) pick
   partition sizes; this model says when a partition stops fitting in
   memory, the other half of that decision. *)

open Wgrid

type t = {
  state_bytes_per_cell : float;
      (** persistent per-cell state (e.g. 8 B per angle plus scalar flux
          for transport, 5 doubles for LU) *)
}

(* Live copies of each boundary face (incoming + outgoing), and the eager
   messages that may be buffered per neighbour link. *)
let face_copies = 2.0
let eager_slack = 2.0

let transport ~angles =
  { state_bytes_per_cell = 8.0 *. (float_of_int angles +. 1.0) }

let lu = { state_bytes_per_cell = 8.0 *. 5.0 }

(* Bytes per rank for a given decomposition. *)
let bytes_per_rank t (app : App_params.t) (pg : Proc_grid.t) =
  let cells_x = Decomp.cells_x app.grid pg in
  let cells_y = Decomp.cells_y app.grid pg in
  let nz = float_of_int app.grid.nz in
  let state = t.state_bytes_per_cell *. cells_x *. cells_y *. nz in
  let face_bytes =
    float_of_int
      (App_params.message_size_ew app pg + App_params.message_size_ns app pg)
  in
  state +. (face_copies *. face_bytes) +. (eager_slack *. face_bytes)

let bytes_per_node t app pg ~cmp =
  bytes_per_rank t app pg *. float_of_int (Cmp.cores_per_node cmp)

(* The smallest power-of-two core count at which each rank's footprint fits
   the given budget. *)
let min_cores_for t app ~bytes_budget ~max_cores =
  if bytes_budget <= 0.0 then invalid_arg "Memory_model.min_cores_for";
  let rec go cores =
    if cores > max_cores then None
    else
      let pg = Proc_grid.of_cores cores in
      if bytes_per_rank t app pg <= bytes_budget then Some cores
      else go (cores * 2)
  in
  go 1

let pp_bytes ppf b =
  if b < 1024.0 then Fmt.pf ppf "%.0f B" b
  else if b < 1024.0 ** 2.0 then Fmt.pf ppf "%.1f KiB" (b /. 1024.0)
  else if b < 1024.0 ** 3.0 then Fmt.pf ppf "%.1f MiB" (b /. (1024.0 ** 2.0))
  else Fmt.pf ppf "%.2f GiB" (b /. (1024.0 ** 3.0))
