(** Per-rank x per-wave timeline analytics over a span trace.

    A wave is one global tile step of the sweep pipeline
    (wave [= sweep * ntiles + tile]). Substrates tag spans emitted inside
    the tile loop with a [("wave", Int w)] arg (wave [-1] marks the
    non-wavefront epilogue); untagged spans are assigned by a
    program-order heuristic anchored on the tagged spans around them.
    Each rank's run is cut into contiguous windows — one per wave plus an
    epilogue column — and decomposed into compute / send / recv / wait /
    other / idle, which by construction sum exactly to the window width. *)

type cell = {
  t_start : float;
  t_end : float;
  compute : float;
  send : float;  (** pure (uncontended) share of the send spans *)
  recv : float;  (** pure (uncontended) share of the receive spans *)
  wait : float;  (** blocking share of comm spans (their ["wait"] arg) *)
  other : float;  (** collectives, halos, perturbations, span overlap *)
  idle : float;  (** window time covered by no span *)
  spans : int;
}

val cell_width : cell -> float
val cell_busy : cell -> float

val zero_cell : float -> cell
(** The zero-width, all-zero cell anchored at the given instant — what an
    unvisited column decomposes to. *)

type t = {
  ranks : int;
  waves : int;
  cells : cell array array;  (** [ranks] x [waves + 1]; last col epilogue *)
  t0 : float;
  start : float array;  (** per-rank first span start *)
  finish : float array;  (** per-rank last span end *)
  dropped : int;  (** spans the producing tracer lost *)
}

val of_spans : ?dropped:int -> ?waves:int -> Span.t list -> t
(** Reconstruct the timeline. [dropped] is the producing tracer's loss
    count, carried through so reports stay honest about truncated traces;
    [waves] forces at least that many wavefront columns. A trace with no
    operation spans at all (empty, or structural-only) yields the
    {!empty} report — [ranks = 0], no cells — rather than an error, so
    consumers degrade gracefully on unperturbed or partial traces. Spans
    named ["rank"] (whole-program wrappers) are excluded from the
    decomposition. *)

val empty : ?dropped:int -> ?waves:int -> unit -> t
(** The degenerate report of a trace with no operation spans: [ranks = 0],
    [cells = [||]]. Rendering and export handle it without raising. *)

val columns : t -> int
(** [waves + 1]: the wavefront columns plus the epilogue. *)

val epilogue_column : t -> int
val cell : t -> rank:int -> col:int -> cell

val wave_arg : string
(** The arg key producers tag spans with: ["wave"]. *)

val epilogue_wave : int
(** The tag value marking epilogue (non-wavefront) spans: [-1]. *)

val equal : ?tol:float -> t -> t -> bool
(** Same shape and, within [tol] (default 1e-6 us), the same per-cell
    decomposition — the cross-substrate identity the timeline tests
    assert. *)

type metric = Compute | Send | Recv | Wait | Idle | Busy | Total

val metric_name : metric -> string
val metric_of_string : string -> metric option
val rank_total : t -> metric -> int -> float
val column_total : t -> metric -> int -> float

val render :
  ?metric:metric -> ?max_ranks:int -> ?max_cols:int ->
  ?mark:(rank:int -> col:int -> char option) ->
  Format.formatter -> t -> unit
(** ASCII rank x wave heatmap of one metric; large grids are downsampled
    (bucket means) to at most [max_ranks] rows and [max_cols] columns.
    [mark] overlays a character on any display bucket containing a marked
    source cell (first mark in scan order wins) — how the idle-wave
    report draws detected fronts on top of the heatmap. *)

val schema : string
(** The versioned JSON schema id: ["wavefront-timeline/v1"]. *)

val to_json : ?label:string -> t -> string
val to_csv : t -> string
