(** A blocking FIFO channel between two domains. The payload is copied on
    [send], so sender and receiver never share the array. *)

type t

val create : unit -> t
val send : t -> float array -> unit

val recv : t -> float array
(** Blocks until a payload is available. *)

val recv_wait : t -> float array * float
(** As {!recv}, also returning how long the call was blocked on an empty
    queue, in wall-clock microseconds ([0.] if a payload was already
    there). *)

val recv_into : t -> float array -> float array * float
(** As {!recv_wait}, receiving into a caller-owned buffer: when the next
    payload's length equals the buffer's, the data is blitted in, the
    channel's internal buffer is recycled for future {!send}s, and the
    caller's buffer is returned — a steady-state loop reusing one buffer
    per face allocates nothing per message. On a length mismatch (e.g. a
    short last tile) the payload is returned unchanged instead. *)

val recv_deadline : t -> timeout_us:float -> float array option * float
(** As {!recv_wait}, but gives up after [timeout_us] microseconds of
    waiting, returning [None] and the time actually waited. [Condition]
    carries no timed wait, so the blocking path polls with exponential
    backoff (1 us doubling to a 1 ms cap) — cheap for payloads already in
    flight, bounded wakeups while waiting out a dead sender. *)

val recv_into_deadline :
  t -> float array -> timeout_us:float -> float array option * float
(** {!recv_into} with the deadline semantics of {!recv_deadline}. A
    timed-out call pops nothing and pools nothing: the channel is left
    exactly as found and stays usable afterwards. *)

val try_recv : t -> float array option

(** {1 Message logging (recovery support)}

    With logging enabled, every enqueued payload is retained under
    monotone sequence numbers until the receiver's checkpoint covers it;
    after a rollback the logged tail is redelivered and a respawned
    sender's replayed sends are suppressed. Logged payloads alias the
    delivered arrays, so a logging channel never recycles buffers into
    its send pool. *)

val enable_log : t -> unit
(** Switch the channel into logging mode (idempotent). Call before any
    traffic. *)

val sent_mark : t -> int
(** Sequence number the next {!send} will carry — the sender-side
    checkpoint mark. *)

val recvd_mark : t -> int
(** Payloads the receiver has consumed — the receiver-side checkpoint
    mark. *)

val release : t -> upto:int -> unit
(** Drop logged payloads with sequence below [upto]: the receiver's
    latest checkpoint covers them, so no rollback can ask for them
    again. No-op on a non-logging channel. *)

val rewind_recv : t -> to_:int -> unit
(** Rewind the receive side to checkpoint mark [to_]: payloads consumed
    after it are redelivered from the log, in order. Raises
    [Invalid_argument] if logging is off or the mark was released. *)

val rewind_send : t -> to_:int -> unit
(** Rewind the send side to checkpoint mark [to_]: the respawned
    sender's replayed sends are suppressed while they duplicate logged
    payloads. Raises [Invalid_argument] if logging is off or the mark is
    out of range. *)
