(** An SSOR/LU-style per-cell kernel: five coupled flow variables per cell
    with a neighbour-free pre-computation (the model's Wg_pre) and a
    west/north upwind update (Wg). Used to measure the LU model inputs. *)

val sweep_block : float array -> nx:int -> ny:int -> nz:int -> unit
(** One forward sweep over a block laid out five values per cell, cell
    [(x,y,z)] at [5 * ((z*ny + y)*nx + x)]. *)

val pre_block : float array -> nx:int -> ny:int -> nz:int -> unit
val init_block : nx:int -> ny:int -> nz:int -> float array
