(** The [wavefront serve] daemon: the plug-and-play model as a service.

    A minimal HTTP/1.1 JSON server over an OCaml 5 domain worker pool —
    no web framework, just [Unix] sockets — whose robustness machinery
    is the point:

    - {b load shedding}: the accept loop admits connections into a
      {!Bounded_queue}; when it is full the connection is answered
      [429 Too Many Requests] (with [Retry-After]) in microseconds
      instead of queueing without bound;
    - {b deadline propagation}: each request carries one absolute
      deadline (from [X-Deadline-Ms], default [default_deadline_ms])
      that gates body reads and is checked cooperatively inside sweep
      evaluation — an expired request is answered [504], a slow-loris
      client [408] after [header_timeout_ms];
    - {b circuit breaking}: the expensive batched-engine validation
      behind [/v1/predict] is guarded by a {!Breaker}; while it is open
      predictions are still served, flagged ["degraded": true];
    - {b graceful drain}: SIGTERM/SIGINT stop the accept loop, close
      the queue, let workers finish the backlog, then return — every
      admitted connection gets a response.

    Endpoints: [GET /healthz], [GET /readyz] (503 while draining),
    [GET /metrics] (OpenMetrics), [POST /v1/predict], [POST /v1/sweep].

    Accounting invariant (scraped by [wavefront slam]): [serve.requests]
    equals the sum of the outcome counters ([serve.ok], [serve.degraded],
    [serve.shed], [serve.timeout], [serve.client_error],
    [serve.server_error], [serve.aborted]) plus the in-flight and queued
    gauges at any scrape instant. *)

type config = {
  host : string;
  port : int;  (** 0 binds an ephemeral port; see {!port} *)
  workers : int;
  queue_capacity : int;
  max_body : int;
  header_timeout_ms : float;  (** budget for the full request to arrive *)
  default_deadline_ms : float;  (** when [X-Deadline-Ms] is absent *)
  chaos : Chaos.spec;
  seed : int;  (** chaos PRNG seed *)
  breaker_window : int;
  breaker_min_calls : int;
  breaker_threshold : float;
  breaker_cooldown_s : float;
  quiet : bool;
}

val default_config : config
(** 127.0.0.1:8080, 4 workers, queue 64, 1 MiB bodies, 2 s header
    budget, 10 s default deadline, chaos off, breaker 16/4/0.5/2 s. *)

type t

val start : config -> t
(** Bind, listen, spawn the accept domain and the worker pool. Raises
    [Unix.Unix_error] when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port (the ephemeral one when [config.port = 0]). *)

val stop : t -> unit
(** Initiate graceful drain and block until every admitted connection is
    answered and all domains have joined. Idempotent. *)

val run : config -> int
(** The CLI entry: install SIGTERM/SIGINT handlers, {!start}, block
    until a signal arrives, drain, return 0. *)
