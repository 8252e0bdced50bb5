(** OCaml-runtime telemetry: GC counters, CPU/wall utilization and peak
    RSS sampled at phase boundaries, plus a deterministic
    minor-words-per-iteration allocation harness.

    This is the layer that watches the *process* rather than the modeled
    machine: the serving-service milestone needs the closed-form hot path
    to be allocation-free and GC-quiet, and these samples are how that
    claim is measured, gated and ratcheted. *)

(** {1 Samples and deltas} *)

type sample = {
  time_s : float;  (** monotonic seconds *)
  cpu_s : float;  (** process user + system CPU seconds, all domains *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
  peak_rss_mb : int;
}

val sample : unit -> sample
(** A point-in-time snapshot ([Gc.quick_stat], [Unix.times], {!peak_rss_mb}). *)

val peak_rss_mb : unit -> int
(** Peak resident set of this process (Linux [VmHWM]), MB. Returns [0]
    where [/proc/self/status] is absent or unparsable (non-Linux hosts,
    restricted sandboxes) — callers treat 0 as "unknown", never as a
    measured value. *)

type delta = {
  wall_s : float;
  cpu_s : float;  (** CPU seconds burned across all domains in the phase *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_delta_words : int;  (** end heap minus start heap (can shrink) *)
  top_heap_words : int;  (** end-of-phase value *)
  peak_rss_mb : int;  (** end-of-phase value; 0 = unknown *)
  domains : int;  (** [Domain.recommended_domain_count] at the end *)
}

val delta : sample -> sample -> delta
(** [delta before after]. *)

val delta_kv : ?prefix:string -> delta -> (string * float) list
(** The delta flattened to numeric key/value pairs (keys like
    ["runtime.minor_words"]), the form the run ledger records. *)

val to_metrics : ?prefix:string -> Metrics.t -> delta -> unit
(** Publish the delta as gauges into a registry (same keys as
    {!delta_kv}). *)

(** {1 Phase collection} *)

type phases
(** An ordered collector of named phase deltas (one report's [runtime]
    section). Not synchronized: drive it from one domain. *)

val phases : unit -> phases

val phase : ?tracer:Tracer.t -> ?rank:int -> phases -> string -> (unit -> 'a) -> 'a
(** [phase ps name f] runs [f], records the runtime delta across it under
    [name] (also on exception), and — when [tracer] is given — emits a
    ["runtime.<name>"] span carrying the headline GC numbers as args, on
    the tracer's own clock. *)

val report : phases -> (string * delta) list
(** In execution order. *)

val pp_report : Format.formatter -> (string * delta) list -> unit
(** The phase table ({!report}'s form — what harness reports store). *)

(** {1 Allocation accounting} *)

type alloc = {
  iterations : int;
  minor_words_total : float;  (** calibrated: harness overhead removed *)
  minor_words_per_iter : float;
  promoted_words : float;
  minor_collections : int;
}

val measure_alloc : ?iterations:int -> (unit -> unit) -> alloc
(** Minor-heap words allocated per call of the closure, measured over
    [iterations] calls (default 1000) after one warm-up call. The fixed
    cost of the measurement window itself (the boxed [Gc.minor_words]
    read) is calibrated with an empty closure and subtracted, so a truly
    allocation-free closure measures exactly 0.0 — deterministically,
    which is what lets tests pin it with [=] rather than a tolerance.
    Run it from a single domain with no concurrent allocation. *)

val pp_alloc : Format.formatter -> alloc -> unit
