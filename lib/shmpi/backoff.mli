(** The one backoff policy for every polling wait in the repository.

    OCaml's [Condition] carries no timed wait, so every deadline-bounded
    blocking primitive here polls its condition and sleeps between
    probes. Before this module the 1 us -> 1 ms doubling loop was written
    out independently in [Channel.recv_deadline] and [Comm.barrier]; the
    serving layer's retry paths triple the call sites. This is the single
    definition of the min/max/doubling policy. *)

type policy = {
  min_s : float;  (** first sleep, seconds *)
  max_s : float;  (** cap; every later sleep is clamped to it *)
}

val v : min_s:float -> max_s:float -> policy
(** Raises [Invalid_argument] unless [0 < min_s <= max_s]. *)

val wait_until :
  ?policy:policy -> deadline:float -> (unit -> bool) -> bool
(** [wait_until ~deadline ready] polls [ready] under the policy
    (default: 1 us doubling to a 1 ms cap), sleeping between probes, until [ready ()] is true
    (returning [true]) or [Unix.gettimeofday () >= deadline] (returning
    [false]). [ready] is probed once before any sleep, so an
    already-satisfied wait never blocks. The caller must not hold a
    mutex [ready] needs. *)
