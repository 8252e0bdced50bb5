(** Model of MPI all-reduce execution time (paper equation 9). *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the smallest [k] with [2^k >= n]. Raises
    [Invalid_argument] if [n < 1]. *)

val default_msg_size : int
(** Default all-reduce payload in bytes (a small scalar reduction). *)

val time : ?msg_size:int -> Params.t -> cores:int -> float
(** [time t ~cores] is the modeled all-reduce time in microseconds across
    [cores] cores on platform [t], using integer (ceiling) stage counts so
    that non-power-of-two core counts are charged for their extra partial
    stage. Equation 9 of the paper with C = [t.cores_per_node]. *)

val tree_time : ?msg_size:int -> Params.t -> cores:int -> float
(** Binomial-tree one-to-all/all-to-one time: [log2 P] sequential message
    steps, the first [log2 C] of them on-chip. *)
