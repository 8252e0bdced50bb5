(** Simulated blocking MPI point-to-point communication over a
    {!Machine.t}, implementing the protocol mechanics underlying the LogGP
    equations of Table 1: eager and rendezvous off-node paths, copy and DMA
    on-chip paths, and shared-bus queueing inside multi-core nodes
    (Table 6's interference).

    {!send} and {!recv} must be called from processes spawned on the engine
    passed to {!create}; both block (suspend the calling process) according
    to MPI semantics — [send] until the payload is injected (for rendezvous
    messages, until the receiver has posted a matching receive), [recv]
    until the payload has arrived and been processed. *)

type t

val create : ?trace:Trace.t -> ?metrics:Obs.Metrics.t -> Engine.t -> Machine.t -> t
(** Pass a {!Trace.t} to record every point-to-point transfer, and a
    metrics registry to count messages and bytes per protocol
    ([sim.msgs.eager], [sim.bytes.rendezvous], ...). *)

val send : t -> src:int -> dst:int -> size:int -> unit
val recv : t -> dst:int -> src:int -> size:int -> unit

val sendrecv : t -> self:int -> other:int -> size:int -> unit
(** Send then receive, the pairwise-exchange step of recursive doubling.
    Deadlock-free for eager-size messages. *)

val sends : t -> int
