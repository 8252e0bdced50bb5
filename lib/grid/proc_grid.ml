(* The 2-D m x n processor array of Figure 1. A processor is indexed (i, j)
   where i in 1..n is the column and j in 1..m is the row, following the
   paper's convention. *)

type t = { cols : int; rows : int }

let v ~cols ~rows =
  if cols < 1 || rows < 1 then invalid_arg "Proc_grid.v: dimensions must be >= 1";
  { cols; rows }

let cores t = t.cols * t.rows

let of_cores p =
  if p < 1 then invalid_arg "Proc_grid.of_cores: need >= 1 cores";
  (* Near-square factorization with cols >= rows, matching the decompositions
     used in the paper's experiments (powers of two give 2^ceil(k/2) columns
     by 2^floor(k/2) rows). *)
  let rec best r = if p mod r = 0 then r else best (r - 1) in
  let rows = best (int_of_float (sqrt (float_of_int p))) in
  { cols = p / rows; rows }

let contains t (i, j) = i >= 1 && i <= t.cols && j >= 1 && j <= t.rows

let rank t (i, j) =
  if not (contains t (i, j)) then invalid_arg "Proc_grid.rank: out of grid";
  ((j - 1) * t.cols) + (i - 1)

let coords t rank =
  if rank < 0 || rank >= cores t then invalid_arg "Proc_grid.coords: bad rank";
  ((rank mod t.cols) + 1, (rank / t.cols) + 1)

type corner = C11 | Cn1 | C1m | Cnm

let all_corners = [ C11; Cn1; C1m; Cnm ]

let corner_coords t = function
  | C11 -> (1, 1)
  | Cn1 -> (t.cols, 1)
  | C1m -> (1, t.rows)
  | Cnm -> (t.cols, t.rows)

let opposite = function C11 -> Cnm | Cnm -> C11 | Cn1 -> C1m | C1m -> Cn1

let diagonals = function
  | C11 | Cnm -> (Cn1, C1m)
  | Cn1 | C1m -> (C11, Cnm)

let is_diagonal_of a b =
  let d1, d2 = diagonals a in
  b = d1 || b = d2

let pp ppf t = Fmt.pf ppf "%dx%d" t.cols t.rows
