(** FIFO mutual exclusion for simulated processes. [acquire] suspends the
    calling process while the resource is held; waiters resume in FIFO
    order. *)

type t

val create : Engine.t -> t
val with_resource : t -> (unit -> 'a) -> 'a
