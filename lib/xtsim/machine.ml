(* The simulated XT4-like machine: a 2-D grid of cores packed onto
   multi-core nodes, connected by a torus of links.

   The [platform] parameters act as ground-truth wire/software costs for the
   simulator's protocol mechanics (eager and rendezvous off-node paths,
   copy and DMA on-chip paths, shared memory bus). The analytic model of
   lib/core abstracts these mechanics into closed forms, so comparing model
   predictions against simulated executions exercises exactly the kind of
   abstraction-versus-system gap the paper's validation does.

   The paper's XT4 has a 3-D torus and maps wavefront applications so that
   all sweeps are near-neighbour; the base latency L covers that case.
   [l_per_hop] optionally charges extra latency per additional torus hop for
   non-neighbour traffic (e.g. all-reduce partners), an effect the paper's
   models deliberately ignore — keeping it switchable lets the ablation
   quantify that the neglect is justified. *)

open Wgrid

type t = {
  platform : Loggp.Params.t;
  pgrid : Proc_grid.t;
  cmp : Cmp.t;
  model_bus : bool;  (** model shared-bus contention inside nodes *)
  l_per_hop : float;  (** extra latency per torus hop beyond the first, us *)
}

let v ?(model_bus = true) ?(l_per_hop = 0.0) ?cmp platform pgrid =
  if l_per_hop < 0.0 then invalid_arg "Machine.v: l_per_hop must be >= 0";
  let cmp =
    match cmp with
    | Some c -> c
    | None -> Cmp.of_cores_per_node platform.Loggp.Params.cores_per_node
  in
  { platform; pgrid; cmp; model_bus; l_per_hop }

let cores t = Proc_grid.cores t.pgrid
let coords t rank = Proc_grid.coords t.pgrid rank

let node_dims t =
  let ceil_div a b = (a + b - 1) / b in
  (ceil_div t.pgrid.cols t.cmp.cx, ceil_div t.pgrid.rows t.cmp.cy)

let node_count t =
  let nx, ny = node_dims t in
  nx * ny

let node_coords t rank =
  let i, j = coords t rank in
  Cmp.node_of t.cmp (i, j)

let node_of_rank t rank =
  let nx, _ = node_dims t in
  let cx, cy = node_coords t rank in
  (cy * nx) + cx

let locality t ~src ~dst : Loggp.Comm_model.locality =
  if node_of_rank t src = node_of_rank t dst then On_chip else Off_node

(* Torus (wrap-around) Manhattan distance between the nodes of two ranks. *)
let hops t ~src ~dst =
  let nx, ny = node_dims t in
  let sx, sy = node_coords t src and dx, dy = node_coords t dst in
  let wrap d len = min d (len - d) in
  wrap (abs (sx - dx)) nx + wrap (abs (sy - dy)) ny

(* End-to-end network latency between two ranks' nodes: the base L for the
   first hop plus l_per_hop for each additional one. *)
let latency t ~src ~dst =
  let h = hops t ~src ~dst in
  if h = 0 then t.platform.offnode.l
  else t.platform.offnode.l +. (t.l_per_hop *. float_of_int (h - 1))

let pp ppf t =
  Fmt.pf ppf "%a grid, %a, %d node(s), %s" Proc_grid.pp t.pgrid Cmp.pp t.cmp
    (node_count t) t.platform.name
