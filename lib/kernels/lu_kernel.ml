(* An SSOR/LU-style per-cell kernel: five coupled flow variables per cell,
   updated from the west and north upwind cells, preceded by a local
   pre-computation that needs no neighbour data (the work the model's Wg_pre
   parameter captures; LU performs it before the boundary receives,
   Figure 4(a)). Used to measure Wg and Wg_pre for the LU model inputs. *)

let nvars = 5

(* The neighbour-free pre-computation on one cell. *)
let pre_cell v off =
  for k = 0 to nvars - 1 do
    let x = v.(off + k) in
    v.(off + k) <- (0.95 *. x) +. (0.01 *. float_of_int (k + 1)) +. (0.002 *. x *. x)
  done

(* The wavefront update of one cell from its west and north upwind cells. *)
let sweep_cell v ~cell ~west ~north =
  for k = 0 to nvars - 1 do
    let w = v.(west + k) and n = v.(north + k) and s = v.(cell + k) in
    let r = (0.4 *. w) +. (0.4 *. n) +. (0.2 *. s) in
    v.(cell + k) <- r +. (0.05 /. (1.0 +. (r *. r)))
  done

(* One forward sweep over an nx * ny plane-stack, for work measurement.
   Boundary cells use their own value as the missing upwind input. *)
let sweep_block v ~nx ~ny ~nz =
  if Array.length v <> nvars * nx * ny * nz then
    invalid_arg "Lu_kernel.sweep_block: bad array size";
  let idx x y z = nvars * (((z * ny) + y) * nx + x) in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let cell = idx x y z in
        let west = if x > 0 then idx (x - 1) y z else cell in
        let north = if y > 0 then idx x (y - 1) z else cell in
        sweep_cell v ~cell ~west ~north
      done
    done
  done

let pre_block v ~nx ~ny ~nz =
  if Array.length v <> nvars * nx * ny * nz then
    invalid_arg "Lu_kernel.pre_block: bad array size";
  for c = 0 to (nx * ny * nz) - 1 do
    pre_cell v (nvars * c)
  done

let init_block ~nx ~ny ~nz =
  Array.init (nvars * nx * ny * nz) (fun k -> 1.0 +. (0.001 *. float_of_int (k mod 97)))
