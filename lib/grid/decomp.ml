(* Partitioning the 3-D data grid over the 2-D processor grid (Figure 1(a)).

   The model works with real-valued per-processor extents Nx/n and Ny/m; the
   executable substrates need balanced integer partitions, which [blocks]
   provides (the first [nx mod n] processors get one extra cell). *)

let cells_x (g : Data_grid.t) (p : Proc_grid.t) = float_of_int g.nx /. float_of_int p.cols
let cells_y (g : Data_grid.t) (p : Proc_grid.t) = float_of_int g.ny /. float_of_int p.rows

let cells_per_tile g p ~htile =
  if htile <= 0.0 then invalid_arg "Decomp.cells_per_tile: htile must be > 0";
  htile *. cells_x g p *. cells_y g p

let blocks ~cells ~parts =
  if parts < 1 || cells < 1 then invalid_arg "Decomp.blocks";
  let base = cells / parts and extra = cells mod parts in
  List.init parts (fun k -> if k < extra then base + 1 else base)

let block_of ~cells ~parts ~index =
  if index < 0 || index >= parts then invalid_arg "Decomp.block_of: bad index";
  let base = cells / parts and extra = cells mod parts in
  if index < extra then base + 1 else base

(* Closed form for the sum of the first [index] block sizes: the [min index
   extra] leading blocks carry one extra cell each. *)
let offset_of ~cells ~parts ~index =
  if index < 0 || index > parts then invalid_arg "Decomp.offset_of: bad index";
  let base = cells / parts and extra = cells mod parts in
  (index * base) + min index extra

(* Per-direction boundary message sizes (Table 3). A processor sends its
   east/west boundary face of one tile: [bytes_per_cell_column] bytes for each
   of the Ny/m rows it owns (scaled by tile height and per-cell payload), and
   symmetrically north/south. Sizes are rounded up to whole bytes. *)
let message_size ~bytes_per_cell ~htile ~extent =
  if bytes_per_cell <= 0.0 then invalid_arg "Decomp.message_size";
  int_of_float (Float.ceil (bytes_per_cell *. htile *. extent))
