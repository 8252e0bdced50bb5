(** Mapping of the processor grid onto multi-core (CMP) nodes
    (paper Section 4.3 and Table 6).

    The cores of each node form a [cx * cy] rectangle in the processor grid;
    rectangles tile the grid starting at processor (1,1). *)

type t = { cx : int; cy : int }

val v : cx:int -> cy:int -> t
val single_core : t
val cores_per_node : t -> int

val of_cores_per_node : int -> t
(** Preferred near-square rectangle for a core count: 2 -> 1x2, 4 -> 2x2,
    8 -> 2x4, 16 -> 4x4 (the shapes used in Table 6 and Section 5.3). *)

val node_of : t -> int * int -> int * int
(** Node coordinates (0-based) of a core position. *)

val same_node : t -> int * int -> int * int -> bool

type dir = E | W | N | S

val all_dirs : dir list

val neighbor : dir -> int * int -> int * int
(** North is towards row 1, so a sweep originating at (1,1) sends east and
    south (Section 2.1). *)

val link_locality : t -> src:int * int -> dir -> Loggp.Comm_model.locality
(** Whether the message from [src] to its [dir] neighbour stays on the node.
    Instantiates the classification rules of Table 6. *)

val nodes_for : Proc_grid.t -> t -> int
(** Number of nodes needed to host the processor grid. *)

val pp : t Fmt.t
