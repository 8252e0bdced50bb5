(** A small MPI-like communicator over OCaml 5 domains: ranked blocking
    point-to-point messages, a barrier, and an all-reduce. *)

type t

exception Timeout of { rank : int; src : int; op : string; waited_us : float }
(** A blocking wait exceeded the communicator's deadline: [rank] is the
    waiting rank, [src] the awaited sender ([-1] for the barrier, which
    waits on everyone), [op] the operation ("recv", "recv_into",
    "barrier"). Only raised when {!create} was given [timeout_us]. *)

val create :
  ?obs:Obs.Tracer.t array -> ?log:bool -> ?timeout_us:float -> int -> t
(** [obs] attaches one tracer per rank (the array must have one entry per
    rank): {!send}, {!recv}, {!barrier} and {!allreduce} then record
    spans on the calling rank's tracer, each written only from that rank's
    domain. [recv] spans carry a ["wait"] arg with the time blocked on an
    empty channel, and ["src"]/["dst"] args make the spans usable with
    [Obs.Critical_path.edges_of_spans]. Without [obs] every operation
    costs a single length check.

    [log] (default false) enables message logging on every channel
    ({!Channel.enable_log}) — required by the recovery supervisor, which
    rewinds and replays channels from their logs. Logging disables the
    channels' buffer pooling (logged payloads alias delivered arrays).

    [timeout_us] bounds every blocking wait — {!recv}, {!recv_into}, the
    barrier, and the collectives built on them — raising {!Timeout}
    instead of hanging when a peer has died. Sends are buffered and never
    block, so with a deadline set no operation can wait forever. The
    deadline path polls with exponential backoff (1 us to a 1 ms cap), so
    it only changes costs when a wait is already long. *)

val ranks : t -> int

val channel : t -> src:int -> dst:int -> Channel.t
(** The directed channel carrying [src]'s messages to [dst], for the
    recovery supervisor's mark/release/rewind bookkeeping. *)

val send : t -> src:int -> dst:int -> float array -> unit
(** Buffered (eager) send: copies the payload and returns. *)

val recv : t -> dst:int -> src:int -> float array
(** Blocks until a message from [src] arrives. Messages between a given
    pair are delivered in order. *)

val recv_into : t -> dst:int -> src:int -> float array -> float array
(** As {!recv}, receiving into a caller-owned buffer ({!Channel.recv_into}):
    returns the buffer filled with the message when lengths match — with
    the channel's internal buffer recycled, so a steady-state tile loop
    allocates nothing per message — and the message itself otherwise. *)

val barrier : t -> rank:int -> unit
(** All ranks must call; reusable. The wait is recorded as a [barrier]
    span on the caller's tracer when tracing is on. *)

val allreduce : t -> rank:int -> op:(float -> float -> float) -> float -> float
(** Recursive-doubling all-reduce; all ranks must call with their value and
    receive the reduction. Works for any rank count. *)

val broadcast : t -> rank:int -> root:int -> float array -> float array
(** Binomial-tree broadcast; all ranks call, all receive root's payload
    (the root gets its own back). *)

val reduce :
  t ->
  rank:int ->
  root:int ->
  op:(float -> float -> float) ->
  float array ->
  float array option
(** Binomial-tree element-wise reduction; [Some result] at the root, [None]
    elsewhere. All payloads must have equal length. *)

val gather : t -> rank:int -> root:int -> float array -> float array array option
(** Gather every rank's payload at the root, indexed by rank. *)
