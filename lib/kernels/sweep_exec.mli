(** Real distributed wavefront sweeps: the transport kernel over a 2-D
    decomposition on the shared-memory runtime. The blocking per-tile
    receive/compute/send loop is the shared {!Wrun.Program} core; this
    module is its real-payload substrate. *)

open Wgrid

type plan = {
  grid : Data_grid.t;
  pg : Proc_grid.t;
  config : Transport.config;
  htile : int;
  schedule : Sweeps.Schedule.t;
  nonwavefront : Wavefront_core.App_params.nonwavefront;
  iterations : int;
  perturb : Perturb.Spec.t option;
}

val plan :
  ?config:Transport.config ->
  ?htile:int ->
  ?iterations:int ->
  ?schedule:Sweeps.Schedule.t ->
  ?nonwavefront:Wavefront_core.App_params.nonwavefront ->
  ?perturb:Perturb.Spec.t ->
  Data_grid.t ->
  Proc_grid.t ->
  plan
(** Defaults: 6-angle transport, Htile 1, one iteration, the Sweep3D
    schedule, and [Allreduce {count = 1; msg_size = 8}] as the
    non-wavefront section (the end-of-iteration reduction the transport
    benchmarks perform).

    [perturb] injects the spec's delays into the real execution: noise and
    straggler time is genuinely spent (busy-waited) after each tile's
    compute, link injection before each wavefront send, and a spec'd
    failure raises {!Perturb.Model.Killed} at the rank's chosen tile. The
    injected delays never touch the payloads, so the gathered result stays
    bitwise-equal to {!run_sequential} whenever the run completes. *)

(** The real-payload substrate: payloads are the boundary faces computed
    by {!Transport.sweep_tile}, carried between domains by {!Shmpi.Comm}
    (receives into reused buffers). Exposed for driving
    {!Wrun.Program.run_rank} directly. *)
module Backend : sig
  type t

  val create :
    ?model:Perturb.Model.t ->
    ?tracer:Obs.Tracer.t ->
    ?progress:int array ->
    ?recover:Perturb.Recover.policy * Wrun.Checkpoint.store ->
    plan ->
    Shmpi.Comm.t ->
    int ->
    t
  (** Per-rank state: the rank's scalar-flux block and its receive
      buffers. [model] is the (shared) instantiated perturbation spec;
      [tracer] tags injected delay as [perturb.*] spans; [progress] is a
      shared per-rank tiles-completed array (slot [rank] is only written
      by this rank). [recover] arms the checkpoint hook: at every wave the
      policy's interval selects, the substrate snapshots the rank's state
      (phi, the sweep's carried z-face, channel marks) into the store and
      releases the covered message logs — see {!run_recoverable}. *)

  val phi : t -> float array

  module Substrate :
    Wrun.Substrate.S with type t = t and type payload = float array
end

type outcome = { blocks : float array array; wall_time : float }

val run : ?obs:Obs.Tracer.t array -> ?timeout_us:float -> plan -> outcome
(** Execute on one domain per processor; returns each rank's scalar-flux
    block and the wall-clock time in us. [obs] (one tracer per rank)
    records per-rank spans for every send/receive/allreduce and a ["rank"]
    span per program — see {!Shmpi.Runtime.run}. [timeout_us] bounds every
    blocking wait ({!Shmpi.Comm.Timeout} instead of a hang). A plan whose
    spec kills a rank raises {!Shmpi.Runtime.Rank_failure}; use
    {!run_resilient} to degrade gracefully instead. *)

type resilient_outcome =
  | Completed of outcome
  | Degraded of {
      failed : int list;
          (** every rank that raised, ascending: spec-killed ranks plus
              peers that timed out starved of their messages *)
      reason : exn;  (** the lowest-numbered failing rank's exception *)
      frontier : int array;
          (** tiles completed per rank when the run stopped — how far the
              wavefront got *)
      wall_time : float;  (** us *)
    }

val run_resilient :
  ?obs:Obs.Tracer.t array -> ?timeout_us:float -> plan -> resilient_outcome
(** As {!run}, but a failing rank degrades instead of raising: every
    blocking wait carries a deadline ([timeout_us], default 1 s) so ranks
    starved by a dead neighbour time out rather than hang the join, and
    the outcome reports who failed and the partial wavefront frontier. *)

type recovery_stats = {
  restarts : int;  (** rank respawns performed *)
  checkpoints : int;  (** snapshots saved, all ranks *)
  replayed_waves : int;  (** waves re-executed after rollbacks *)
}

type recoverable_outcome =
  | Recovered of outcome * recovery_stats
      (** completed — possibly after rolling failed ranks back *)
  | Unrecovered of {
      failed : int list;
      reason : exn;
      frontier : int array;
      wall_time : float;
    }  (** a rank exhausted its restarts or failed outside the protocol *)

val run_recoverable :
  ?obs:Obs.Tracer.t array ->
  ?timeout_us:float ->
  ?store:Wrun.Checkpoint.store ->
  policy:Perturb.Recover.policy ->
  plan ->
  recoverable_outcome
(** As {!run_resilient}, but with checkpoint/rollback recovery: every
    [policy.interval] waves each rank snapshots its state into [store]
    (default an in-memory store; pass [Wrun.Checkpoint.file_store] to
    survive the process), and a spec-killed rank is revived in place —
    its channels rewound to the last checkpoint's marks, in-flight
    messages replayed from the senders' bounded logs, and the shared core
    resumed from the checkpoint's position. Only the failed rank rolls
    back (uncoordinated rollback with message logging; the wavefront DAG
    rules out any domino effect). A recovered run's gathered grid is
    bitwise-equal to the unfailed run's. A disabled policy
    ([interval = 0]) takes the plain {!run_resilient} path — no logging,
    no hooks, bitwise invisible. *)

val gather : plan -> float array array -> float array
(** Assemble per-rank blocks into a global [nx*ny*nz] grid. *)

val run_sequential : plan -> float array
(** The undecomposed reference computation; must equal
    [gather plan (run plan).blocks] bitwise. *)
