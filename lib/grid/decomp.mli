(** Partitioning the 3-D data grid over the 2-D processor grid
    (Figure 1(a)). *)

val cells_x : Data_grid.t -> Proc_grid.t -> float
(** [cells_x g p] is the model's real-valued per-processor extent [Nx/n]. *)

val cells_y : Data_grid.t -> Proc_grid.t -> float
(** [Ny/m]. *)

val cells_per_tile : Data_grid.t -> Proc_grid.t -> htile:float -> float
(** Cells computed per tile per processor, [Htile * Nx/n * Ny/m]. *)

val blocks : cells:int -> parts:int -> int list
(** Balanced integer partition of [cells] into [parts] blocks, largest
    first. *)

val block_of : cells:int -> parts:int -> index:int -> int
(** The size of block [index] (0-based) of {!blocks}. *)

val offset_of : cells:int -> parts:int -> index:int -> int
(** The starting cell of block [index]: the closed-form sum of the sizes of
    blocks [0 .. index-1] (so [offset_of ~index:parts] = [cells]). *)

val message_size : bytes_per_cell:float -> htile:float -> extent:float -> int
(** Boundary message size in bytes for a face of [extent] cells at tile
    height [htile], with [bytes_per_cell] bytes exchanged per boundary cell
    (Table 3's MessageSize rows). *)
