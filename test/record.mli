(** Message-sequence recording: the cross-substrate differential oracle.

    {!Wrap} layers over any {!Wrun.Substrate.S} and captures each rank's
    communication steps in program order, leaving the wrapped substrate's
    behaviour untouched. Two backends executing the same
    {!Wrun.Program.config} must produce identical per-rank event sequences;
    the differential tests check exactly that, including under
    perturbation — injected delays and adversarial scheduling may move
    events in time but never reorder a rank's own sequence. After each
    iteration's tile loop, a rank's [Halo] and [Allreduce] events are the
    configuration's epilogue operations in list order ([Local_work] is
    not communication and leaves no event).

    Each rank appends only to its own slot, so recording is safe on
    single-threaded substrates (simulator, dataflow) and on
    one-domain-per-rank runtimes alike. *)

type event =
  | Send of { peer : int; axis : Wrun.Substrate.axis; tile : int }
  | Recv of { peer : int; axis : Wrun.Substrate.axis; tile : int; bytes : int }
  | Boundary of { axis : Wrun.Substrate.axis }
  | Allreduce of { count : int; msg_size : int }
  | Halo of { dst : int; src : int; bytes : int }
      (** [-1] for a neighbour off the grid *)
  | Finish

type t

val create : ranks:int -> t

val events : t -> int -> event list
(** The rank's recorded events, oldest first. *)

module Wrap (S : Wrun.Substrate.S) :
  Wrun.Substrate.S with type t = t * S.t and type payload = S.payload
(** The recording substrate: pass [(recorder, backend)] where the
    original program passed [backend]. Communication hooks (send, recv,
    boundary, halo, allreduce, finish) are recorded; compute, local work
    and per-tile bookkeeping hooks pass straight through. *)
