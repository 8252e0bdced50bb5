(* LogGP operation costs for the batched engine.

   The wave-batched engine executes the program with no machine at all;
   giving each rank a virtual clock advanced by these costs turns a run
   into the analytic (r1a)-(r5) term schedule evaluated at wave
   resolution: every tile-step is charged exactly the model's W / Wg_pre
   work and the protocol-mechanics communication terms the closed forms are
   built from (eager: sender busy o, payload in flight L + size*G behind
   it, receiver overhead o; on-chip copy: o_copy / size*g_copy / o_copy;
   and the rendezvous/DMA analogues). With single-core nodes, eager-sized
   messages and bus contention off, the event-level simulator follows the
   identical arithmetic, so the two substrates produce the same per-rank x
   per-wave timeline to float precision — the cross-substrate identity the
   timeline tests assert. The rendezvous charge assumes the receive is
   pre-posted (the handshake reply is immediate), which is the model's own
   (r4) assumption; the simulator can stall longer, and that difference is
   precisely the wait the divergence report attributes. *)

open Wgrid
open Wavefront_core

type t = {
  platform : Loggp.Params.t;
  cmp : Cmp.t;
  pg : Proc_grid.t;
  w : float;  (** tile compute W = Wg * cells-per-tile, us *)
  w_pre : float;  (** tile pre-compute, us *)
  bus_ew : float;  (** Table-6 interference per E/W op, us (0 = bus off) *)
  bus_ns : float;  (** Table-6 interference per N/S op, us (0 = bus off) *)
}

(* The multi-core shared-bus layer (paper Section 4.3, Table 6): on a
   Cx x Cy node, the DMA engines of co-located cores contend for the
   memory bus, and the model charges each send and each receive of the
   tile loop an interference term coeff * I, with
   I = o_dma + size * G_dma (Loggp.Comm_model.contention_i) and the
   per-axis coefficients of Plugplay.contention_coeffs (1x2 -> I on the
   N/S operations; 2x2 -> I on every operation; 2x4 -> 2I; ...). This is
   the model's own closed form — per-node arrival counts in the steady
   anti-diagonal front, not a queueing simulation — so it is computable
   per rank with no shared state, which is what keeps the batched
   engine's domain sharding bitwise-deterministic with the bus on. *)
let loggp ?(model_bus = false) ~cmp (platform : Loggp.Params.t) pg
    (app : App_params.t) =
  let cells = Decomp.cells_per_tile app.grid pg ~htile:app.htile in
  let bus_ew, bus_ns =
    if not model_bus then (0.0, 0.0)
    else
      let coeff_ew, coeff_ns = Plugplay.contention_coeffs cmp in
      ( coeff_ew
        *. Loggp.Comm_model.contention_i platform.onchip
             (App_params.message_size_ew app pg),
        coeff_ns
        *. Loggp.Comm_model.contention_i platform.onchip
             (App_params.message_size_ns app pg) )
  in
  {
    platform;
    cmp;
    pg;
    w = app.wg *. cells;
    w_pre = app.wg_pre *. cells;
    bus_ew;
    bus_ns;
  }

let bus_ew t = t.bus_ew
let bus_ns t = t.bus_ns
let model_bus t = t.bus_ew > 0.0 || t.bus_ns > 0.0

(* Same node iff same Cmp rectangle — the mapping Machine uses: the
   0-based coordinates x = rank mod cols and y = rank / cols agree in
   x / cx and in y / cy. Integer arithmetic only, so the batched engine
   can probe every link at set-up without allocating. *)
let locality t ~src ~dst : Loggp.Comm_model.locality =
  let cols = t.pg.Proc_grid.cols and cores = Proc_grid.cores t.pg in
  if src < 0 || src >= cores || dst < 0 || dst >= cores then
    invalid_arg "Costs.locality: bad rank";
  let cx = t.cmp.Cmp.cx and cy = t.cmp.Cmp.cy in
  if src mod cols / cx = dst mod cols / cx && src / cols / cy = dst / cols / cy
  then On_chip
  else Off_node

(* Mirror of Mpi_sim's uncontended protocol mechanics (bus off):
   [send_busy] is how long the sender's clock advances inside the send,
   [in_flight] how far behind the sender's return the payload is
   delivered, [recv_overhead] the receiver's software cost after
   delivery. *)
(* The [_at] variants take the link locality explicitly, so a caller that
   already knows it (e.g. the batched engine's per-link cache) skips the
   node-rectangle arithmetic on every message. *)
let send_busy_at t (loc : Loggp.Comm_model.locality) size =
  match loc with
  | On_chip ->
      let oc = t.platform.onchip in
      if size <= oc.eager_limit then oc.o_copy else oc.o_copy +. oc.o_dma
  | Off_node ->
      let off = t.platform.offnode in
      if size <= off.eager_limit then off.o
      else (* request + (pre-posted) handshake reply + injection *)
        off.o +. (2.0 *. (off.l +. off.o_h)) +. off.o

let send_busy t ~src ~dst size = send_busy_at t (locality t ~src ~dst) size

let in_flight_at t (loc : Loggp.Comm_model.locality) size =
  let fsize = float_of_int size in
  match loc with
  | On_chip ->
      let oc = t.platform.onchip in
      if size <= oc.eager_limit then fsize *. oc.g_copy else fsize *. oc.g_dma
  | Off_node ->
      let off = t.platform.offnode in
      off.l +. (fsize *. off.g)

let in_flight t ~src ~dst size = in_flight_at t (locality t ~src ~dst) size

let recv_overhead_at t (loc : Loggp.Comm_model.locality) =
  match loc with
  | On_chip -> t.platform.onchip.o_copy
  | Off_node -> t.platform.offnode.o

let recv_overhead t ~src ~dst = recv_overhead_at t (locality t ~src ~dst)

let compute t = t.w
let precompute t = t.w_pre

(* The idle-wave time constants of the tied pipeline (Perturb.Idle_model):
   a front crosses one rank hop per [hop_latency] us — the full link cost
   plus one tile step — while the pipeline advances one wave every
   [steady_period] us, the same terms minus the flight time (the payload
   of wave w+1 travels while the receiver still computes wave w, so the
   wave-axis recurrence never pays it). Their difference being exactly
   [in_flight] is what makes the interior ranks tie with zero slack. *)
let hop_latency t ~src ~dst size =
  send_busy t ~src ~dst size
  +. in_flight t ~src ~dst size
  +. recv_overhead t ~src ~dst +. t.w_pre +. t.w

let steady_period t ~src ~dst size =
  send_busy t ~src ~dst size +. recv_overhead t ~src ~dst +. t.w_pre +. t.w

let allreduce t ~count ~msg_size =
  float_of_int count
  *. Loggp.Allreduce.time ~msg_size t.platform ~cores:(Proc_grid.cores t.pg)
