(* Mapping of the processor grid onto multi-core (CMP) nodes.

   The cores of each node form a Cx x Cy rectangle in the processor grid
   (paper Section 4.3). Communication between two cores of the same rectangle
   is on-chip; communication crossing a rectangle edge is off-node. The
   [link_locality] rules below are exactly those of Table 6, generalized to
   an arbitrary source core and direction. *)

type t = { cx : int; cy : int }

let v ~cx ~cy =
  if cx < 1 || cy < 1 then invalid_arg "Cmp.v: core rectangle must be >= 1x1";
  { cx; cy }

let single_core = v ~cx:1 ~cy:1
let cores_per_node t = t.cx * t.cy

(* Preferred near-square core rectangles for a given core count, as used in
   the paper's Table 6 (1x2, 2x2, 2x4) and Section 5.3 (up to 16 cores). *)
let of_cores_per_node = function
  | 1 -> v ~cx:1 ~cy:1
  | 2 -> v ~cx:1 ~cy:2
  | 4 -> v ~cx:2 ~cy:2
  | 8 -> v ~cx:2 ~cy:4
  | 16 -> v ~cx:4 ~cy:4
  | c ->
      if c < 1 then invalid_arg "Cmp.of_cores_per_node";
      let rec best r = if c mod r = 0 then r else best (r - 1) in
      let cx = best (int_of_float (sqrt (float_of_int c))) in
      v ~cx ~cy:(c / cx)

(* Floor division so that out-of-grid neighbour coordinates (row or column
   zero) land in their own "node" and classify as off-node rather than
   aliasing onto node 0 via truncation towards zero. *)
let floor_div a b = if a >= 0 then a / b else ((a + 1) / b) - 1
let node_of t (i, j) = (floor_div (i - 1) t.cx, floor_div (j - 1) t.cy)
let same_node t a b = node_of t a = node_of t b

type dir = E | W | N | S

let all_dirs = [ E; W; N; S ]

(* North is towards smaller row index j, i.e. towards the (1,1) origin row,
   so that a sweep from (1,1) flows east and south as in Section 2.1. *)
let neighbor d (i, j) =
  match d with E -> (i + 1, j) | W -> (i - 1, j) | N -> (i, j - 1) | S -> (i, j + 1)

let link_locality t ~src dir : Loggp.Comm_model.locality =
  if same_node t src (neighbor dir src) then On_chip else Off_node

let nodes_for grid t =
  let open Proc_grid in
  let ceil_div a b = (a + b - 1) / b in
  ceil_div grid.cols t.cx * ceil_div grid.rows t.cy

let pp ppf t = Fmt.pf ppf "%dx%d cores/node" t.cx t.cy
