(** Time-unit conversions. The model works in microseconds; the studies of
    Section 5 report seconds, days and per-month throughput. *)

val month : float
(** One 30-day month in microseconds. *)

val to_s : float -> float
val to_days : float -> float

val pp_time : float Fmt.t
(** Pretty-print a duration given in microseconds with a readable unit. *)
