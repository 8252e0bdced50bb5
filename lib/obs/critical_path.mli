(** The critical path through a recorded run: the longest dependency chain
    ending at the last-finishing span, walked backwards through program
    order within a rank and message edges between ranks. *)

type edge = { src : int; dst : int; t_send : float; t_recv : float }
(** "Rank [dst] could not pass [t_recv] before rank [src] reached
    [t_send]." *)

type step = { span : Span.t; via_message : edge option }
(** [via_message] is the edge through which this step gated the next
    (later) step; [None] means program order. *)

val edges_of_spans :
  ?send:string -> ?recv:string -> Span.t list -> edge list
(** Reconstruct message edges by FIFO matching: the k-th span named [send]
    (default ["send"], arg ["dst"]) from rank s to rank d pairs with the
    k-th span named [recv] (default ["recv"], arg ["src"]) on d from s —
    exact for FIFO channels. *)

val walk : spans:Span.t list -> edges:edge list -> step list
(** In chronological order, ending at the last-finishing span. On a
    bounded trace that dropped spans the walk ends where the record
    does. *)

type report = { steps : step list; dropped : int; complete : bool }
(** A walk plus the record's integrity: [complete] is false when the trace
    behind it dropped spans, in which case the path's head may be
    missing. *)

val report : ?dropped:int -> spans:Span.t list -> edges:edge list -> unit -> report
(** {!walk} with drop accounting attached; pass the producing tracer's
    [Tracer.dropped]. *)

val truncation_note : report -> string option
(** The explicit truncation warning to render with the path, [None] when
    the record was complete. *)

type segment = { name : string; count : int; total : float }

val summarize : step list -> segment list
(** Time on the path grouped by span name, largest first. *)
