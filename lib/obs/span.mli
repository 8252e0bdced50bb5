(** A completed interval of work on one rank, stamped in the producer's
    clock domain (wall time for real runs, simulated time for the
    event-level simulator). *)

type arg = Int of int | Float of float | Str of string

type t = {
  name : string;
  cat : string;
  rank : int;
  t_start : float;  (** us *)
  dur : float;  (** us *)
  args : (string * arg) list;
}

val v :
  ?cat:string ->
  ?args:(string * arg) list ->
  rank:int ->
  start:float ->
  dur:float ->
  string ->
  t
(** A negative duration (a stepped clock) is clamped to zero and flagged:
    the raw value is kept under the [clamped_neg_dur] arg and {!clamped}
    answers true for the span. *)

val clamped : t -> bool
(** The span was built with a negative duration (see {!v}). *)

val end_time : t -> float
val compare_start : t -> t -> int
(** Orders by start time, then rank. *)

val arg_int : t -> string -> int option
val arg_float : t -> string -> float option
(** Integer args are coerced. *)
