(** The wave-batched engine, the repository's one timed engine: the
    Figure-4 program evaluated with the model's per-operation LogGP costs
    ({!Costs}) on per-rank virtual clocks, without fibers, effects or
    per-event heap records — whole anti-diagonals of the processor grid
    advance per step over flat preallocated structure-of-arrays (per-rank
    virtual clocks, per-slot delivery timestamps), optionally sharded
    across OCaml 5 domains: each diagonal is split into near-equal
    contiguous chunks, one per lane, and each epilogue pass into row
    bands, with synchronization only at those stage boundaries. Its
    timeline is the analytic term schedule every report compares
    observed runs against.

    With single-core nodes and the bus off, a traced run reconstructs
    (via [Obs.Timeline.of_spans]) into the event-level simulator's
    [Obs.Timeline.t] cell for cell over the wavefront section,
    perturbations and recovery included — the differential identity the
    batched test suite pins. At large sizes the engine runs untraced in
    O(ranks) memory and streams per-cell analytics into a {!cell_sink}
    instead; a million-rank sweep completes in tens of seconds where the
    fiber substrates exhaust memory or time. *)

open Wgrid

type cell_sink = Obs.Cell_batch.t -> unit
(** Receives the finished timeline cells, one per (rank, column) visit,
    in flat batches ({!Obs.Cell_batch} documents the layout): each
    rank's cells in its program order (columns of one rank arrive in
    increasing time, ranks interleave). Column [waves] is the epilogue.
    A column visited by more than one iteration produces one cell per
    visit: totals are additive and windows union —
    [Obs.Timeline_stream] folds them accordingly. The sink is only ever
    called on the domain that called {!run}, in the order a 1-domain run
    produces, whatever [domains] is: it needs no synchronization. A
    batch is one lane's log of one stage; it is emptied and refilled
    after the sink returns, so the sink must not keep it. *)

type status = Alive | Done | Failed | Blocked_recv of int | Blocked_coll

type outcome = {
  ranks : int;
  completed : bool;
  elapsed : float;  (** max finish clock over completed ranks, us *)
  iterations : int;
  per_iteration : float;
  waves : int;  (** timeline wave columns ([nsweeps * ntiles]) *)
  blocked : (int * string) list;
  failed : int list;
  recovered : int list;
  checkpoints : int;
  messages : int;
  orphaned : int;  (** messages sent but never received *)
  bus_wait : float;
      (** total Table-6 bus interference charged across all ranks, us
          (0 when the costs were built without [model_bus]) *)
  finish : float array;  (** per-rank finish clock (0 if unfinished) *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val run :
  ?iterations:int ->
  ?tiling:Program.tiling ->
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  ?obs:Obs.Tracer.t ->
  ?cells:cell_sink ->
  ?domains:int ->
  costs:Costs.t ->
  Proc_grid.t ->
  Wavefront_core.App_params.t ->
  outcome
(** Evaluate the program on every rank. [domains] (default 1, clamped
    to the grid's row count) is the number of lanes each stage is split
    into: every wavefront stage splits its anti-diagonal into [domains]
    contiguous chunks of near-equal size in ascending rank order, and
    every epilogue pass splits the ranks into [domains] row bands. The
    lanes run on at most [Domain.recommended_domain_count ()] OCaml 5
    domains, the calling one included; with fewer domains than lanes,
    domain i runs lanes i, i + w, ... of [w] domains in turn, because a
    spinning domain the cores cannot hold stalls every stage barrier.
    Results are bitwise identical for every domain count — collective
    release points are associative float maxima and each rank's
    perturbation stream is its own. [obs] attaches a span
    tracer (requires [domains = 1]: the tracer is not thread-safe;
    raises [Invalid_argument] otherwise); [cells] streams timeline
    cells. The stream is domain-independent too: the same cells reach
    [cells] in the same order for every domain count, so a fold that
    sums floats, such as [Obs.Timeline_stream]'s, gives the same bits.
    Raises [Invalid_argument] for [domains < 1].

    When [costs] carries the multi-core bus layer
    ({!Costs.loggp}[ ~model_bus:true] on a multi-core {!Wgrid.Cmp.t}),
    every tile-loop send and receive is additionally charged the
    per-axis Table-6 interference term folded into the per-link cost
    cache — a per-rank closed form, so domain determinism is unchanged;
    with the bus off (or single-core nodes) the fold is skipped and
    results are bitwise-identical to the contention-free engine. The
    epilogue halo/collective stages are outside the Table-6 wavefront
    section and are never bus-charged. *)

(** The steady-state telemetry probe: an interior rank of a live engine
    state stepped through the exact per-tile backend op sequence of the
    wavefront section (precompute, two receives, compute, two sends),
    unobserved and unperturbed, with its delivery slots re-primed before
    each step. One [step] is the engine's repeatable steady-state unit
    of work; the telemetry gate measures it at 0 minor words. *)
module Steady : sig
  type probe

  val probe :
    costs:Costs.t -> Proc_grid.t -> Wavefront_core.App_params.t -> probe
  (** Raises [Invalid_argument] unless the grid is at least 3x3 (the
      probe rank must have all four neighbours). *)

  val step : probe -> unit

  val clock : probe -> float
  (** The probe rank's virtual clock — strictly increasing across
      steps, which is how tests see the step really ran. *)

  val messages : probe -> int
  (** Messages the probe rank has sent plus received. *)
end

val run_timeline :
  ?iterations:int ->
  ?tiling:Program.tiling ->
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  ?domains:int ->
  costs:Costs.t ->
  Proc_grid.t ->
  Wavefront_core.App_params.t ->
  outcome * Obs.Timeline.t
(** {!run} with a dense in-memory cell sink, assembled into the exact
    [Obs.Timeline.t] a traced run reconstructs. Materializes
    O(ranks * waves) cells — convenient below ~10^5 ranks; stream into
    [Obs.Timeline_stream] via [~cells] beyond that. *)
