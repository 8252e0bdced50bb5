(** The admission queue: a capacity-bounded MPMC queue that sheds instead
    of growing.

    The server's accept loop [try_push]es connections and immediately
    answers 429 when the queue is full — load shedding happens at
    admission, before any request bytes are read, so an overloaded
    server's refusal costs microseconds instead of a worker. Contracts
    (pinned by QCheck in [test/suite_serve.ml]):

    - [length] never exceeds [capacity];
    - [try_push] returns [`Full] exactly when [length = capacity] at the
      call (shed ⇔ full);
    - after [close], pushes return [`Closed] and [pop] drains the
      remaining items then returns [None] — the graceful-drain
      handshake. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val length : 'a t -> int

val try_push : 'a t -> 'a -> [ `Queued | `Full | `Closed ]
(** Never blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available or the queue is closed and empty
    ([None]). Closing wakes every blocked popper. *)

val close : 'a t -> unit
(** Idempotent. Queued items remain poppable (drain); new pushes are
    refused. *)

val pushed : 'a t -> int
(** Items ever accepted ([`Queued]); monotone. *)
