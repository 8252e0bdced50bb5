(* MPI point-to-point communication models for the Cray XT4 (paper Table 1).

   The off-node model distinguishes eager messages (<= eager_limit bytes,
   equation 1) from rendezvous messages (> eager_limit, equation 2), where the
   rendezvous handshake costs h = 2(L + o_h). The on-chip model distinguishes
   the copy path (equation 5) from the DMA path (equation 6). [send] and
   [receive] are the times spent executing the MPI send/receive code
   (equations 3, 4a, 4b, 7, 8a, 8b); [total] is the end-to-end time from send
   start to receive completion when the receive is pre-posted. *)

type locality = Off_node | On_chip

let pp_locality ppf = function
  | Off_node -> Fmt.string ppf "off-node"
  | On_chip -> Fmt.string ppf "on-chip"

let check_size size =
  if size < 0 then invalid_arg "Comm_model: negative message size"

let handshake (p : Params.offnode) = 2.0 *. (p.l +. p.o_h)

(* --- Off-node (Table 1(a)) --- *)

let total_offnode (p : Params.offnode) size =
  check_size size;
  let bytes = float_of_int size in
  if size <= p.eager_limit then (2.0 *. p.o) +. (bytes *. p.g) +. p.l
  else (3.0 *. p.o) +. handshake p +. (bytes *. p.g) +. p.l

let send_offnode (p : Params.offnode) size =
  check_size size;
  if size <= p.eager_limit then p.o else p.o +. handshake p

let receive_offnode (p : Params.offnode) size =
  check_size size;
  let bytes = float_of_int size in
  if size <= p.eager_limit then p.o
  else (2.0 *. p.l) +. (2.0 *. p.o) +. (bytes *. p.g)

(* --- On-chip (Table 1(b)) --- *)

let total_onchip (p : Params.onchip) size =
  check_size size;
  let bytes = float_of_int size in
  if size <= p.eager_limit then (2.0 *. p.o_copy) +. (bytes *. p.g_copy)
  else Params.onchip_o p +. (bytes *. p.g_dma) +. p.o_copy

let send_onchip (p : Params.onchip) size =
  check_size size;
  if size <= p.eager_limit then p.o_copy else Params.onchip_o p

let receive_onchip (p : Params.onchip) size =
  check_size size;
  let bytes = float_of_int size in
  if size <= p.eager_limit then p.o_copy else (bytes *. p.g_dma) +. p.o_copy

(* --- Locality dispatch --- *)

let total (t : Params.t) locality size =
  match locality with
  | Off_node -> total_offnode t.offnode size
  | On_chip -> total_onchip t.onchip size

let send (t : Params.t) locality size =
  match locality with
  | Off_node -> send_offnode t.offnode size
  | On_chip -> send_onchip t.onchip size

let receive (t : Params.t) locality size =
  match locality with
  | Off_node -> receive_offnode t.offnode size
  | On_chip -> receive_onchip t.onchip size

(* Shared-bus interference term of Table 6: the time a DMA transfer of
   [size] bytes occupies the bus between kernel memory and the NIC. *)
let contention_i (p : Params.onchip) size =
  check_size size;
  p.o_dma +. (float_of_int size *. p.g_dma)
