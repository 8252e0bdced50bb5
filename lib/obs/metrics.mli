(** A metrics registry: counters, gauges, and log-scaled histograms with
    p50/p95/p99 quantile estimation.

    Metrics are get-or-create by name and the registry preserves insertion
    order, so rendered summaries are stable. Not synchronized: use from one
    domain, or give each domain its own registry. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] exists with a
    different kind. *)

val inc : ?by:int -> counter -> unit
val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** A fresh gauge reads [nan] until {!set}. *)

val set : gauge -> float -> unit
val value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?lo:float -> ?hi:float -> t -> string -> histogram
(** Geometric buckets, eight per doubling, covering [[lo, hi]] (defaults
    [1e-3] to [1e10] us); values at or below [lo] share the first bucket,
    values above [hi] the last. *)

val observe : histogram -> float -> unit
(** [nan] observations are ignored. *)

val observations : histogram -> int
val sum : histogram -> float
val min_value : histogram -> float
val max_value : histogram -> float
val mean : histogram -> float

val quantile : histogram -> float -> float
(** Geometric midpoint of the bucket holding the requested rank, clamped
    to the observed min/max — relative error bounded by the bucket width
    (~9%). [nan] when empty. *)

type bucket = { le : float; count : int; cumulative : int }

val buckets : histogram -> bucket list
(** Occupied buckets in ascending upper-bound order, with cumulative
    counts, terminated by an [le = infinity] entry carrying the full
    observation count — the shape OpenMetrics exposition wants. Empty
    buckets are omitted (cumulative counts stay monotone over any
    upper-bound subset, so the sparse list is still a valid cumulative
    histogram). *)

(** {1 Snapshots} *)

type sample =
  | Count of int
  | Value of float
  | Distribution of {
      n : int;
      sum : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

val snapshot : t -> (string * sample) list
(** In metric insertion order. *)

val find : t -> string -> sample option

type view = Vcounter of int | Vgauge of float | Vhistogram of histogram

(** Raw views in insertion order — what a renderer that needs the live
    histogram (not the quantile summary) consumes. *)
val views : t -> (string * view) list
val pp : Format.formatter -> t -> unit
