(** The reference dataflow backend: deterministic execution of the
    program's blocking-communication precedence graph, with no event
    simulation and no domains.

    Every rank is an effect-based fiber; a receive on an empty channel
    suspends it, a send wakes the waiting receiver, and a single FIFO run
    queue makes the interleaving deterministic. There is no clock — the
    backend answers only whether the schedule's communication order is
    consistent, which makes it a fast deadlock validator and a
    message-sequence oracle at 100K+ ranks.

    A {!Perturb.Spec.t} maps onto the clockless scheduler logically: a
    straggler's tasks only run when every other rank is blocked or done
    (the most adversarial legal ordering — completing under it proves the
    precedence graph tolerates that rank always arriving last), and a
    spec'd failure ends the rank's fiber at its chosen tile, after which
    the outcome reports the starved ranks and the orphaned in-flight
    messages. *)

open Wgrid

type msg = { axis : Substrate.axis; tile : int; bytes : int }
(** What travels on an edge of the precedence graph: a face description
    rather than data. *)

type outcome = {
  ranks : int;
  completed : bool;
  blocked : (int * string) list;
      (** stuck ranks and what each was waiting on (empty iff completed) *)
  failed : int list;  (** ranks killed by the perturbation spec, ascending *)
  recovered : int list;
      (** ranks that died but were revived by the checkpoint policy,
          ascending (empty unless a recovery policy is active) *)
  messages : int;
  orphaned : int;
      (** sent messages never received — non-zero flags a sender whose
          receiver died or a program leaking sends *)
  mismatches : string list;
      (** face-description disagreements between sender and receiver
          (capped at 16) *)
}

val pp_outcome : outcome Fmt.t

(** The raw deterministic scheduler, for custom programs (e.g. testing
    that a deliberately broken communication order is reported as
    deadlock). {!send}/{!recv}/{!barrier} may only be called from inside a
    program run by {!exec}. *)
module Raw : sig
  type sched

  val create : ranks:int -> sched

  val set_straggler : sched -> int -> unit
  (** Route the rank's tasks to the deferred queue, which only drains when
      no non-straggler can run. Call before {!exec}. *)

  val send : sched -> src:int -> dst:int -> msg -> unit
  val recv : sched -> rank:int -> src:int -> msg
  val barrier : sched -> rank:int -> unit

  val exec : sched -> (int -> unit) -> unit
  (** Run every rank's program to completion or deadlock. One-shot. *)

  val outcome : sched -> outcome
end

type t

val create :
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  ranks:int ->
  msg_ew:int ->
  msg_ns:int ->
  unit ->
  t
(** [perturb] marks the spec's stragglers for deferred scheduling and arms
    its failures; the spec's timed clauses (noise, link delay, pulses,
    collective noise) are no-ops on this clockless backend.

    [recover] arms the checkpoint/rollback protocol: a spec'd failure
    revives the rank in place instead of ending its fiber (the wavefront
    DAG makes rollback local, so the precedence graph is unchanged) and
    the outcome lists it as recovered. A disabled policy (interval 0) or
    its absence is bitwise invisible. *)

val of_app :
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  Proc_grid.t ->
  Wavefront_core.App_params.t ->
  t
(** {!create} with the app's message sizes on this grid. *)

module Substrate : Substrate.S with type t = t and type payload = msg

val exec : t -> (int -> unit) -> unit
(** Run rank programs (typically
    [fun rank -> Program.run_rank (module Substrate) t cfg rank], possibly
    wrapped in a recording substrate) under the deterministic scheduler. *)

val outcome : t -> outcome

val run :
  ?iterations:int ->
  ?tiling:Program.tiling ->
  ?perturb:Perturb.Spec.t ->
  ?recover:Perturb.Recover.policy ->
  Proc_grid.t ->
  Wavefront_core.App_params.t ->
  outcome
(** Validate a Table 3 application end to end: build the program with
    {!Program.of_app} and execute it on this backend. *)
