(** LogGP models of MPI point-to-point communication on the XT4
    (paper Table 1).

    [total] is the end-to-end time from the start of the send to the
    completion of a pre-posted receive (equations 1, 2, 5, 6); [send] and
    [receive] are the times spent executing the MPI send and receive calls
    (equations 3, 4a, 4b, 7, 8a, 8b). All results are in microseconds. All
    functions raise [Invalid_argument] on negative message sizes. *)

type locality = Off_node | On_chip

val pp_locality : locality Fmt.t

val handshake : Params.offnode -> float
(** [handshake p] is the rendezvous handshake time [h = 2(L + o_h)] paid by
    messages larger than the eager limit (paper, Section 3.1). *)

val total_offnode : Params.offnode -> int -> float
val send_offnode : Params.offnode -> int -> float
val receive_offnode : Params.offnode -> int -> float
val total_onchip : Params.onchip -> int -> float
val send_onchip : Params.onchip -> int -> float

val total : Params.t -> locality -> int -> float
val send : Params.t -> locality -> int -> float
val receive : Params.t -> locality -> int -> float

val contention_i : Params.onchip -> int -> float
(** [contention_i p size] is the shared-bus interference term
    [I = o_dma + size * G_dma] of Table 6. *)
