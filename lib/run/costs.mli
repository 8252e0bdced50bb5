(** LogGP operation costs for the batched engine: the analytic model's
    per-operation terms (uniform tile work W / Wg_pre, the uncontended
    protocol mechanics of eager / rendezvous / copy / DMA transfers, the
    eq-9 all-reduce), packaged so {!Batched} can advance per-rank virtual
    clocks and emit a wave-resolved analytic term schedule. With
    single-core nodes, eager-sized messages and bus contention off this
    arithmetic is the event-level simulator's exactly over the wavefront
    section; the rendezvous charge assumes a pre-posted receive. *)

open Wgrid
open Wavefront_core

type t = {
  platform : Loggp.Params.t;
  cmp : Cmp.t;
  pg : Proc_grid.t;
  w : float;  (** tile compute W, us *)
  w_pre : float;  (** tile pre-compute, us *)
  bus_ew : float;  (** Table-6 interference per E/W op, us (0 = bus off) *)
  bus_ns : float;  (** Table-6 interference per N/S op, us (0 = bus off) *)
}

val loggp :
  ?model_bus:bool ->
  cmp:Cmp.t ->
  Loggp.Params.t ->
  Proc_grid.t ->
  App_params.t ->
  t
(** The model's uniform view of [app] on [pg]: W = Wg * cells-per-tile.

    [model_bus] (default [false]) enables the multi-core shared-bus
    layer of paper Section 4.3: every E/W (resp. N/S) send and receive
    of the tile loop is additionally charged [bus_ew] (resp. [bus_ns]) =
    {!Wavefront_core.Plugplay.contention_coeffs}[ cmp] times the Table-6
    interference quantum [I = o_dma + size * G_dma]
    ({!Loggp.Comm_model.contention_i}). With single-core nodes the
    coefficients are zero, so enabling the bus changes nothing. The term
    is a per-rank closed form — the steady anti-diagonal front's
    per-node arrival counts, not simulated queueing — so evaluations
    stay order-independent (domain-sharding determinism) and diverge
    from the event simulator's queued bus only within the tolerance the
    batched-vs-event differential suite pins. *)

val bus_ew : t -> float
val bus_ns : t -> float

val model_bus : t -> bool
(** Whether any bus interference term is non-zero. *)

val locality : t -> src:int -> dst:int -> Loggp.Comm_model.locality
(** [On_chip] iff ranks [src] and [dst] lie in the same {!Wgrid.Cmp}
    node rectangle of the processor grid ({!Wgrid.Cmp.same_node} on
    their coordinates), decided with integer arithmetic alone. Raises
    [Invalid_argument] if either rank is off the grid. *)

val send_busy : t -> src:int -> dst:int -> int -> float
(** Time the sender's clock advances inside a send of this many bytes. *)

val in_flight : t -> src:int -> dst:int -> int -> float
(** How far behind the sender's return the payload is delivered. *)

val recv_overhead : t -> src:int -> dst:int -> float
(** The receiver's software cost after delivery. *)

val send_busy_at : t -> Loggp.Comm_model.locality -> int -> float
val in_flight_at : t -> Loggp.Comm_model.locality -> int -> float

val recv_overhead_at : t -> Loggp.Comm_model.locality -> float
(** The [_at] variants of the three message charges take the link
    locality explicitly — for callers that cache {!locality} per link
    (the batched engine) instead of re-deriving it per message. *)

val compute : t -> float
val precompute : t -> float

val hop_latency : t -> src:int -> dst:int -> int -> float
(** Wall-clock cost of one rank hop of an idle-wave front along a
    [src]->[dst] link carrying messages of this many bytes:
    [send_busy + in_flight + recv_overhead + w_pre + w]. The analytic
    [hop_cost] input of [Perturb.Idle_model]. *)

val steady_period : t -> src:int -> dst:int -> int -> float
(** Per-wave period of the tied pipeline on the same link:
    [hop_latency - in_flight] (the flight is paid once per hop, not per
    wave). The analytic [wave_period] input of [Perturb.Idle_model]. *)

val allreduce : t -> count:int -> msg_size:int -> float
(** [count] eq-9 all-reduces of [msg_size] bytes across the grid's
    cores. The non-wavefront section's local work comes priced from
    {!Program.epilogue_op}, so this is its only term here. *)
