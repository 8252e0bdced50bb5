(** Executable wavefront programs on the simulated machine.

    Each core runs the blocking-MPI program of Figure 4 for every sweep of
    the application's schedule; the precedence behaviour of Figure 2 emerges
    from the blocking communication rather than being programmed. Running
    this against the analytic model reproduces the paper's
    model-versus-measured validation.

    Two effects the closed-form model ignores can be injected for
    robustness studies: integer-block load imbalance ([balanced]) and
    per-tile compute jitter ([noise]).

    A {!Perturb.Spec.t} plugs in via [perturb] for the richer resilience
    studies: seeded per-rank compute noise, per-link injection delay,
    permanent stragglers, and rank kills. Injected time appears as
    [perturb.noise] / [perturb.straggler] / [perturb.link] spans in the
    [obs] trace, so critical-path reports show where delay was absorbed
    versus propagated. A zero spec injects nothing and leaves the event
    stream bitwise-identical to running without one. *)

type noise = { amplitude : float; seed : int }
(** Multiplicative jitter: each tile's compute time is scaled by a value
    uniform in [1 - amplitude, 1 + amplitude], drawn from a deterministic
    per-rank stream. *)

type rank_stats = {
  compute : float;  (** time spent computing, us *)
  comm : float;  (** time inside send/receive calls, incl. blocking waits *)
  wait : float;
      (** the part of [comm] in excess of each operation's uncontended
          cost: blocking on upstream progress, rendezvous stalls, bus
          queueing *)
  finish : float;  (** completion time of the rank's program *)
}

type outcome = {
  elapsed : float;  (** simulated time for the whole run, us *)
  per_iteration : float;
  iterations : int;
  completed : bool;
      (** all ranks finished; [false] indicates deadlock, or — when
          [failed] is non-empty — ranks starved by a killed neighbour *)
  failed : int list;
      (** ranks killed by the perturbation spec, ascending; [[]] without
          one *)
  recovered : int list;
      (** ranks that died but were restored from a checkpoint, ascending;
          [[]] unless a recovery policy is active *)
  checkpoints : int;
      (** snapshots taken across all ranks under the recovery policy *)
  events : int;
  sends : int;
  stats : rank_stats array;  (** indexed by rank *)
}

val compute_total : outcome -> float
(** Summed per-rank computation time. *)

val comm_share : outcome -> float
(** Communication share of the last-finishing rank — the executable
    analogue of the model's critical-path communication component
    (Figure 11). *)

(** The simulated-machine substrate behind {!run}: payloads are byte
    sizes, communication costs what the LogGP-calibrated {!Mpi_sim}
    charges, computes advance the simulated clock. Exposed for driving
    {!Wrun.Program.run_rank} directly — e.g. wrapped in the test suite's
    recording substrate to compare message sequences against another
    backend. *)
module Backend : sig
  type t

  val create :
    ?balanced:bool ->
    ?noise:noise ->
    ?perturb:Perturb.Spec.t ->
    ?recover:Perturb.Recover.policy ->
    ?trace:Trace.t ->
    ?obs:Obs.Tracer.t ->
    ?metrics:Obs.Metrics.t ->
    Engine.t ->
    Machine.t ->
    Wavefront_core.App_params.t ->
    t

  module Substrate : Wrun.Substrate.S with type t = t and type payload = int
end

val estimated_events :
  Machine.t -> Wavefront_core.App_params.t -> iterations:int -> int
(** Rough event count of {!run} (~6 events per rank-tile-sweep), for sizing
    a simulation before committing to it. *)

val default_max_ranks : int
(** The rank ceiling {!run} enforces unless overridden: 65536. Past it
    the per-rank fibers and event stream stop failing gracefully. *)

exception
  Rank_ceiling of { ranks : int; max_ranks : int; estimated_events : int }
(** Raised by {!run} — before any simulation state is built — when the
    grid exceeds the configured ceiling, instead of a flat
    [Out_of_memory] minutes into the run. The registered printer points
    at the wave-batched engine ([--engine=batched]), which handles
    million-rank grids. *)

val run :
  ?iterations:int ->
  ?max_ranks:int ->
  ?balanced:bool ->
  ?noise:noise ->
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  ?trace:Trace.t ->
  ?obs:Obs.Tracer.t ->
  ?metrics:Obs.Metrics.t ->
  Machine.t ->
  Wavefront_core.App_params.t ->
  outcome
(** [balanced] derives each rank's tile work from the integer block
    decomposition instead of the model's uniform [Nx/n * Ny/m]. Raises
    [Invalid_argument] on a noise amplitude outside [0, 1).

    [recover] simulates the checkpoint/rollback protocol: on due waves
    the modeled snapshot cost is charged ([recover.checkpoint] spans); a
    spec'd kill is survived — the rank pays the restart cost plus the
    re-execution of the waves since its last snapshot ([recover.restart]
    / [recover.replay] spans) and carries on. A disabled policy
    (interval 0) or its absence leaves the event stream
    bitwise-identical to running without one.

    [obs] collects per-rank spans ([precompute]/[compute]/[recv]/[send],
    plus [allreduce]/[halo] for the non-wavefront section) stamped in
    simulated time — build it over the engine clock-free default; spans
    are recorded with explicit timestamps so any tracer works. [recv] and
    [send] spans carry ["src"]/["dst"] args usable by
    {!Obs.Critical_path.edges_of_spans}, and every comm span carries a
    ["wait"] arg with its blocking share. [metrics] additionally receives
    per-protocol message/byte counters (via {!Mpi_sim.create}), cross-rank
    [sim.rank.*] histograms and [sim.elapsed]/[sim.events]/[sim.sends]
    totals. Both default to off; the disabled paths cost one option check
    per operation. *)

val pp_outcome : outcome Fmt.t
