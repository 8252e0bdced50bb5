(** A bounded span collector.

    A tracer must only be written from one domain; parallel runtimes
    create one tracer per rank and {!merge} them after the join. Spans
    beyond the capacity are counted but not stored (or evict the oldest,
    under [Overwrite_oldest]); {!dropped} reports the loss. *)

type t

val default_capacity : int
(** 2{^19} spans. *)

val create :
  ?capacity:int -> ?policy:Ring.policy -> ?clock:Clock.t -> unit -> t
(** The clock (default {!Clock.wall}) is only consulted by {!span};
    {!record} takes explicit timestamps, so a simulator can stamp
    spans in simulated time. *)

val clock : t -> Clock.t

val record :
  t ->
  ?cat:string ->
  ?args:(string * Span.arg) list ->
  rank:int ->
  start:float ->
  dur:float ->
  string ->
  unit

val span :
  t ->
  ?cat:string ->
  ?args:(string * Span.arg) list ->
  rank:int ->
  string ->
  (unit -> 'a) ->
  'a
(** Time [f] with the tracer's clock and record the span (also when [f]
    raises). *)

val spans : t -> Span.t list
(** Retained spans, sorted by start time. *)

val recorded : t -> int
val total : t -> int
val dropped : t -> int

val merge : t array -> Span.t list
(** All retained spans of the given tracers, sorted by start time. *)
