(* The substrate interface: everything a backend must provide for the
   substrate-agnostic wavefront program ({!Program}) to execute on it.

   The program of the paper's Figure 4 is written once, against this
   interface; what varies per substrate is the meaning of a payload and of
   time. The event-level simulator's payloads are byte sizes and its clock
   is simulated; the shared-memory runtime's payloads are real boundary
   faces computed by the transport kernel; the reference dataflow backend's
   payloads are message descriptors and it has no clock at all, only the
   precedence order.

   Hooks are deliberately fine-grained (one per Figure-4 step and one per
   non-wavefront operation) so each backend can attribute time, spans and
   validation exactly where today's hand-written programs do. They come in
   two sets. [TILE_LOOP] holds the Figure-4 steps, all that
   [Program.run_sweep] calls; the batched engine implements only these,
   because it resolves the non-wavefront section across all ranks at once.
   [S] adds the per-rank hooks of that section ([local_work], [halo],
   [allreduce]) and [finish], which [Program.run_rank] calls on the
   blocking substrates. All hooks take the calling [rank]: a substrate
   value may be shared by every rank (the simulator) or private to one
   (the shared-memory runtime).

   The fine grain also anchors the perturbation and recovery protocol: a
   backend honouring a [Perturb.Spec] calls [Perturb.Model]'s step
   functions from [tile_begin], [compute], the wavefront [send] and
   [allreduce], and only decides how each delay the model hands it is
   spent. The model holds the draw-alignment contract, so the same seeded
   spec injects the same delay sequence into every substrate. *)

(* Which of the two downstream dimensions a boundary face crosses. The
   direction of travel along the axis is the sweep's business ([Program]
   resolves neighbours); substrates only need the axis to pick layouts and
   trace labels. *)
type axis = X | Y

let axis_name = function X -> "x" | Y -> "y"

(* A resumable point in the program: the next tile step to execute.
   [Program.run_rank ~from] restarts a rank here after a rollback, and
   [Checkpoint] snapshots carry one. [iteration] is 1-based, matching the
   program's iteration loop; [sweep] and [tile] are 0-based. *)
type position = { iteration : int; sweep : int; tile : int }

let start_position = { iteration = 1; sweep = 0; tile = 0 }

let pp_position ppf p =
  Fmt.pf ppf "iteration %d, sweep %d, tile %d" p.iteration p.sweep p.tile

module type TILE_LOOP = sig
  type t
  type payload
  (** A boundary face travelling between neighbouring ranks. *)

  val boundary : t -> rank:int -> axis:axis -> h:int -> payload
  (** The incoming face of a tile of height [h] at the domain edge, where
      there is no upstream neighbour. *)

  val recv : t -> rank:int -> src:int -> axis:axis -> tile:int -> h:int ->
    bytes:int -> payload
  (** Blocking receive of tile [tile]'s upstream face from neighbour
      [src]. [bytes] is the model's message size for the face (Table 3);
      substrates carrying real data may ignore it. *)

  val send : t -> rank:int -> dst:int -> axis:axis -> tile:int ->
    payload -> unit
  (** Buffered (eager) send of a downstream face to neighbour [dst]. *)

  val precompute : t -> rank:int -> tile:int -> unit
  (** The pre-boundary computation of Figure 4 (LU's Wg_pre; zero-cost for
      Sweep3D and Chimaera, but still invoked so substrates with per-tile
      bookkeeping see every step). *)

  val compute : t -> rank:int -> dir:int * int * int -> tile:int -> h:int ->
    x:payload -> y:payload -> payload * payload
  (** Compute one tile of height [h] from its two upstream faces; returns
      the outgoing (x, y) downstream faces. *)

  val sweep_begin : t -> rank:int -> sweep:int -> dir:int * int * int -> unit
  (** Called once per sweep before its first tile, with the sweep's index
      in the schedule and its (dx, dy, dz) flow direction. *)

  val tile_begin : t -> rank:int -> iteration:int -> sweep:int -> tile:int ->
    wave:int -> unit
  (** Called at the start of every tile step, before [precompute], with the
      fields of the step's resumable {!position} and its global wave index
      [wave = ((iteration - 1) * nsweeps + sweep) * ntiles + tile]. This is
      the checkpoint layer's anchor: a substrate honouring a checkpoint
      policy snapshots its state here when the wave is due
      ([Perturb.Recover.due]), and a simulated substrate spends the
      modeled checkpoint cost [Perturb.Model.tile_begin] charges.
      Substrates without recovery bookkeeping do nothing. The position
      comes as its fields so that the tile loop allocates nothing; a
      substrate builds the record only for a snapshot it takes. *)
end

module type S = sig
  include TILE_LOOP

  (* The operations of [Program.epilogue_op], one rank at a time (Table
     3's Tnonwavefront). *)

  val local_work : t -> rank:int -> float -> unit
  (** Work local to the rank, already priced in microseconds: a fixed
      per-iteration cost, or the stencil over the rank's whole block. *)

  val halo : t -> rank:int -> dst:int -> src:int -> bytes:int -> unit
  (** One direction of a halo exchange: send [bytes] to [dst], then
      receive from [src]; a neighbour of [-1] is off the grid and skipped.
      [Program] orders the four calls so the exchange is deadlock-free on
      blocking substrates. *)

  val allreduce : t -> rank:int -> count:int -> msg_size:int -> unit
  (** [count] back-to-back all-reduces of [msg_size] bytes; every rank
      calls. *)

  val finish : t -> rank:int -> unit
  (** The rank's program is complete. *)
end

type ('t, 'p) tile_loop =
  (module TILE_LOOP with type t = 't and type payload = 'p)
(** The tile-loop hooks as a first-class module, the form
    {!Program.run_sweep} takes. *)

type ('t, 'p) s = (module S with type t = 't and type payload = 'p)
(** A substrate as a first-class module, the form {!Program.run_rank}
    takes. *)

(* One signature for the ping-pong microbenchmarks that feed
   {!Loggp.Fit}, so `wavefront fit` drives the simulated and the real
   transport through the same interface. *)
module type MICROBENCH = sig
  val name : string

  val curve : ?rounds:int -> sizes:int list -> unit -> (int * float) list
  (** Half-round-trip time in microseconds per message size in bytes, in
      the shape {!Loggp.Fit} consumes. *)
end
