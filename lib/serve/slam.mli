(** The [wavefront slam] chaos/soak client: hammer a running serve
    daemon with a seeded mix of valid, malformed, oversized, slow-loris,
    early-close and deadline-doomed requests from concurrent client
    domains, then assert the daemon's robustness invariants:

    + the process survived (a final [/healthz] answers 200);
    + every connection that awaited a response got a well-formed HTTP
      status line — never a hang, never garbage;
    + the daemon's own accounting reconciles: on the final [/metrics]
      scrape, [serve_requests_total] equals the sum of the outcome
      counters plus the in-flight and queued gauges;
    + deterministic classes got their contracted status (400 for
      malformed, 413 for oversized, 504 for zero-deadline sweeps —
      shedding 429s excepted, which are always legitimate);
    + with [expect_breaker] (the daemon was started with
      [--chaos-fail-burst]): the breaker opened at least once {e and}
      closed again — degradation was entered and exited;
    + the fast-path p99 latency stays under [latency_budget_ms] even
      while the breaker and the shedder are exercised.

    The request schedule is a pure function of [(seed, requests,
    clients)] — {!plan} — so a failing run is replayed exactly. Results
    go into a [wavefront-slam/v1] JSON report. *)

type cls =
  | Predict_plain
  | Predict_validate  (** exercises the breaker-guarded validation *)
  | Sweep_small
  | Healthz
  | Malformed  (** unparseable or invalid-field bodies: expect 400 *)
  | Oversized  (** Content-Length beyond the body cap: expect 413 *)
  | Slow_loris  (** partial header, then silence: expect 408 *)
  | Early_close  (** connect, dribble, hang up: no response expected *)
  | Expired_sweep  (** [X-Deadline-Ms: 0]: expect 504 *)

val class_name : cls -> string
val all_classes : cls list

val plan : seed:int -> requests:int -> clients:int -> cls array array
(** The full request schedule, one array per client domain; deterministic
    in its arguments ({!Perturb.Prng} streams, one per client). *)

type config = {
  host : string;
  port : int;
  requests : int;  (** total across all clients *)
  clients : int;  (** concurrent client domains *)
  seed : int;
  client_timeout_s : float;  (** per-connection give-up budget *)
  latency_budget_ms : float;  (** fast-path p99 bound *)
  expect_breaker : bool;
  fail_on_invariant : bool;  (** exit 1 on any failed invariant *)
  report_path : string option;
  quiet : bool;
}

val default_config : config
(** 127.0.0.1:8080, 1000 requests, 4 clients, seed 42, 10 s timeout,
    2000 ms budget, no breaker expectation, report unwritten. *)

type invariant = { name : string; pass : bool; detail : string }

type report = {
  seed : int;
  requests : int;
  clients : int;
  duration_s : float;
  class_counts : (string * int) list;
  status_counts : (int * int) list;  (** HTTP status -> connections *)
  no_response : int;  (** connections that closed without a status line *)
  malformed_responses : int;  (** bytes received but no valid status line *)
  fast_p50_ms : float;  (** latency quantiles of the fast classes *)
  fast_p95_ms : float;
  fast_p99_ms : float;
  server_metrics : (string * float) list;  (** final scrape, plain samples *)
  invariants : invariant list;
}

val report_to_json : report -> string
(** The [wavefront-slam/v1] document. *)

val execute : config -> (report, string) result
(** Run the slam. [Error] only when the daemon is unreachable at the
    start — everything after that is a report, not an error. *)

val run : config -> int
(** CLI entry: {!execute}, print the verdict, write the report when
    [report_path] is set. Exit 0 on success, 1 when an invariant failed
    and [fail_on_invariant] is set, 2 when the daemon was unreachable. *)
