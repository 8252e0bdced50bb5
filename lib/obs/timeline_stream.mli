(** Bounded-memory streaming fold of timeline cells.

    The batched engine hands over its finished cells — one per
    (rank, column) visit — in flat {!Cell_batch.t} batches; at large
    rank counts the dense per-rank grid is out of reach, so this
    accumulator folds the stream, batch by batch and in place, into a
    rank- and wave-bucketized heatmap grid (bucket means — what
    {!Timeline.render} would have displayed of the dense grid) plus
    exact full-resolution per-column totals. Memory is
    O(rank_buckets * wave_buckets + waves), independent of the rank
    count, and the grid is left uninitialized until a bucket's first
    member arrives. The fold is not synchronized: call the sink from one
    domain at a time. The batched engine calls it on its calling domain
    only, in the order of a 1-domain run, so a multi-domain run folds to
    the same bits. *)

type t

val create :
  ?max_rank_buckets:int ->
  ?max_wave_buckets:int ->
  ranks:int ->
  waves:int ->
  unit ->
  t
(** An empty accumulator for a [ranks] x [waves]-wavefront-column run
    ([waves] as reported by the engine outcome; the epilogue column is
    implied). Bucket counts are clamped to the actual extents; defaults
    512 rank buckets x 256 wave buckets. *)

val sink : t -> Cell_batch.t -> unit
(** The engine-facing cell sink ([Batched.cell_sink]-shaped): fold every
    cell of the batch, in batch order. Column [waves] is the epilogue.
    Repeat visits to one (rank, column) fold additively (totals add,
    windows union) — the producer's multi-iteration contract. A batch's
    cells have no idle time, so the [Idle] totals are 0. Raises
    [Invalid_argument] on an out-of-range cell; the cells before it stay
    folded and counted. *)

val cells : t -> int
(** Cells folded so far. *)

val rank_buckets : t -> int
val wave_buckets : t -> int

val rank_bucket_bounds : t -> int -> int * int
(** Inclusive source-rank range of a heatmap row. *)

val wave_bucket_bounds : t -> int -> int * int
(** Inclusive source-column range of a heatmap column; the epilogue
    bucket reports [(waves, waves)]. *)

val column_total : t -> Timeline.metric -> int -> float
(** Exact (unbucketized) total of a metric over one wave column across
    every rank; index [waves] is the epilogue. *)

val column_cells : t -> int -> int

val to_timeline : t -> Timeline.t
(** The bucket-mean heatmap as a {!Timeline.t} — [ranks] =
    rank buckets, [waves] = wave buckets, each cell the mean
    decomposition of its bucket's members over the union window — so
    {!Timeline.render}, {!Timeline.to_json} and {!Timeline.to_csv}
    apply unchanged. *)

val schema : string
(** The versioned export schema id: ["wavefront-timeline-stream/v1"]. *)

val emit_csv : t -> (string -> unit) -> unit
(** Write the non-empty bucket rows (sums, not means) as CSV through the
    given chunk writer — bounded chunks, never one monolithic string. *)

val emit_json : ?label:string -> t -> (string -> unit) -> unit
(** As {!emit_csv} in JSON, closing with the exact per-column totals. *)
