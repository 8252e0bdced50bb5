(** The 2-D [m x n] processor array of Figure 1. A processor is indexed
    [(i, j)] where [i] in [1..cols] is the column and [j] in [1..rows] is the
    row, following the paper's convention. *)

type t = { cols : int; rows : int }

val v : cols:int -> rows:int -> t
val cores : t -> int

val of_cores : int -> t
(** [of_cores p] is the near-square factorization of [p] with
    [cols >= rows]. *)

val contains : t -> int * int -> bool

val rank : t -> int * int -> int
(** Row-major zero-based rank of a coordinate; inverse of {!coords}. *)

val coords : t -> int -> int * int

(** {2 Corners}

    The four corners of the processor grid, at which sweeps originate
    (Figure 2). *)

type corner = C11 | Cn1 | C1m | Cnm

val all_corners : corner list
val corner_coords : t -> corner -> int * int

val opposite : corner -> corner
(** The far corner reached last by a sweep originating at the argument. *)

val diagonals : corner -> corner * corner
(** The two corners on the main diagonal of the wavefronts of a sweep
    originating at the argument. *)

val is_diagonal_of : corner -> corner -> bool
val pp : t Fmt.t
