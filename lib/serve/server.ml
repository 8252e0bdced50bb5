(* The daemon. Concurrency layout: one accept domain feeding a
   Bounded_queue of connections, [workers] worker domains popping it.
   The Obs.Metrics registry is not thread-safe, so one mutex guards
   every metric update and the scrape; everything per-request lives on
   the worker's stack (one reusable predict-response buffer per
   worker). *)

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  max_body : int;
  header_timeout_ms : float;
  default_deadline_ms : float;
  chaos : Chaos.spec;
  seed : int;
  breaker_window : int;
  breaker_min_calls : int;
  breaker_threshold : float;
  breaker_cooldown_s : float;
  quiet : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 4;
    queue_capacity = 64;
    max_body = 1024 * 1024;
    header_timeout_ms = 2000.0;
    default_deadline_ms = 10_000.0;
    chaos = Chaos.none;
    seed = 42;
    breaker_window = 16;
    breaker_min_calls = 4;
    breaker_threshold = 0.5;
    breaker_cooldown_s = 2.0;
    quiet = false;
  }

(* Where a finished connection lands in the accounting. Exactly one
   outcome per accepted connection — the slam client's reconciliation
   invariant. *)
type outcome =
  | Ok_
  | Degraded
  | Shed
  | Timeout
  | Client_error
  | Server_error
  | Aborted

type stats = {
  mutex : Mutex.t;  (* guards the registry and all counters below *)
  reg : Obs.Metrics.t;
  requests : Obs.Metrics.counter;
  ok : Obs.Metrics.counter;
  degraded : Obs.Metrics.counter;
  shed : Obs.Metrics.counter;
  timeout : Obs.Metrics.counter;
  client_error : Obs.Metrics.counter;
  server_error : Obs.Metrics.counter;
  aborted : Obs.Metrics.counter;
  latency : Obs.Metrics.histogram;
  inflight : Obs.Metrics.gauge;
  queue_depth : Obs.Metrics.gauge;
  draining : Obs.Metrics.gauge;
  breaker_state : Obs.Metrics.gauge;
  breaker_opens : Obs.Metrics.gauge;
  breaker_closes : Obs.Metrics.gauge;
  breaker_admitted : Obs.Metrics.gauge;
  breaker_rejected : Obs.Metrics.gauge;
  chaos_failures : Obs.Metrics.gauge;
  mutable live_inflight : int;
}

let make_stats () =
  let reg = Obs.Metrics.create () in
  {
    mutex = Mutex.create ();
    reg;
    requests = Obs.Metrics.counter reg "serve.requests";
    ok = Obs.Metrics.counter reg "serve.ok";
    degraded = Obs.Metrics.counter reg "serve.degraded";
    shed = Obs.Metrics.counter reg "serve.shed";
    timeout = Obs.Metrics.counter reg "serve.timeout";
    client_error = Obs.Metrics.counter reg "serve.client_error";
    server_error = Obs.Metrics.counter reg "serve.server_error";
    aborted = Obs.Metrics.counter reg "serve.aborted";
    latency = Obs.Metrics.histogram reg "serve.latency_us";
    inflight = Obs.Metrics.gauge reg "serve.inflight";
    queue_depth = Obs.Metrics.gauge reg "serve.queue_depth";
    draining = Obs.Metrics.gauge reg "serve.draining";
    breaker_state = Obs.Metrics.gauge reg "serve.breaker.state";
    breaker_opens = Obs.Metrics.gauge reg "serve.breaker.opens";
    breaker_closes = Obs.Metrics.gauge reg "serve.breaker.closes";
    breaker_admitted = Obs.Metrics.gauge reg "serve.breaker.admitted";
    breaker_rejected = Obs.Metrics.gauge reg "serve.breaker.rejected";
    chaos_failures = Obs.Metrics.gauge reg "serve.chaos_failures";
    live_inflight = 0;
  }

let with_stats st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

type conn = { fd : Unix.file_descr; admitted_at : float }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  queue : conn Bounded_queue.t;
  stats : stats;
  breaker : Breaker.t;
  chaos : Chaos.t option;
  stop_flag : bool Atomic.t;
  mutable accept_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  stop_mutex : Mutex.t;
  mutable stopped : bool;
}

let record_outcome t ~admitted_at outcome =
  let now = Unix.gettimeofday () in
  with_stats t.stats (fun () ->
      let st = t.stats in
      let c =
        match outcome with
        | Ok_ -> st.ok
        | Degraded -> st.degraded
        | Shed -> st.shed
        | Timeout -> st.timeout
        | Client_error -> st.client_error
        | Server_error -> st.server_error
        | Aborted -> st.aborted
      in
      Obs.Metrics.inc c;
      Obs.Metrics.observe st.latency ((now -. admitted_at) *. 1e6))

(* --- request handling ----------------------------------------------- *)

let json_headers = [ ("Content-Type", "application/json") ]

let respond_error fd status msg =
  ignore
    (Http.write_response ~headers:json_headers
       ~body:(Printf.sprintf {|{"error":%S}|} msg)
       fd status)

let request_deadline t req ~now =
  let budget =
    match Http.header req "x-deadline-ms" with
    | Some v -> (
        match float_of_string_opt (String.trim v) with
        | Some ms -> ms
        | None -> t.cfg.default_deadline_ms)
    | None -> t.cfg.default_deadline_ms
  in
  Deadline.of_budget_ms ~now budget

(* The breaker-guarded, chaos-injected validation dependency. Returns
   the validation verdict for the response; never raises. *)
let guarded_validation t ~worker p =
  let now = Unix.gettimeofday () in
  match Breaker.acquire ~now t.breaker with
  | `Reject -> Api.Degraded "validation circuit open"
  | `Run | `Probe -> (
      let fault =
        match t.chaos with
        | None -> `Ok
        | Some c -> Chaos.decide c ~worker
      in
      match fault with
      | `Fail ->
          Breaker.record ~now:(Unix.gettimeofday ()) ~ok:false t.breaker;
          Api.Degraded "validation dependency failed (injected)"
      | `Ok | `Slow _ -> (
          (match fault with `Slow d -> Unix.sleepf d | _ -> ());
          match Api.validate_run p with
          | v ->
              Breaker.record ~now:(Unix.gettimeofday ()) ~ok:true t.breaker;
              v
          | exception e ->
              Breaker.record ~now:(Unix.gettimeofday ()) ~ok:false t.breaker;
              Api.Degraded (Printexc.to_string e)))

let scrape t =
  with_stats t.stats (fun () ->
      let st = t.stats in
      Obs.Metrics.set st.inflight (float_of_int st.live_inflight);
      Obs.Metrics.set st.queue_depth
        (float_of_int (Bounded_queue.length t.queue));
      Obs.Metrics.set st.draining
        (if Atomic.get t.stop_flag then 1.0 else 0.0);
      let now = Unix.gettimeofday () in
      Obs.Metrics.set st.breaker_state
        (match Breaker.state ~now t.breaker with
        | Breaker.Closed -> 0.0
        | Breaker.Open -> 1.0
        | Breaker.Half_open -> 2.0);
      Obs.Metrics.set st.breaker_opens (float_of_int (Breaker.opens t.breaker));
      Obs.Metrics.set st.breaker_closes
        (float_of_int (Breaker.closes t.breaker));
      Obs.Metrics.set st.breaker_admitted
        (float_of_int (Breaker.admitted t.breaker));
      Obs.Metrics.set st.breaker_rejected
        (float_of_int (Breaker.rejected t.breaker));
      Obs.Metrics.set st.chaos_failures
        (float_of_int
           (match t.chaos with
           | None -> 0
           | Some c -> Chaos.injected_failures c));
      Obs.Openmetrics.render st.reg)

let handle_predict t ~worker ~deadline ~buf fd body =
  match Api.parse_predict body with
  | Error msg ->
      respond_error fd 400 msg;
      Client_error
  | Ok p ->
      if Deadline.expired ~now:(Unix.gettimeofday ()) deadline then begin
        respond_error fd 504 "deadline expired before evaluation";
        Timeout
      end
      else begin
        let validation =
          if p.Api.validate then guarded_validation t ~worker p
          else Api.Not_requested
        in
        Api.eval_predict_into buf p ~validation;
        let ok = Http.write_response ~headers:json_headers
            ~body:(Buffer.contents buf) fd 200
        in
        if not ok then Aborted
        else
          match validation with Api.Degraded _ -> Degraded | _ -> Ok_
      end

(* A sweep renders into a buffer of its own, garbage once written: a
   4096-point response is ~0.7 MB, and a worker buffer grown to hold it
   would stay that size for the daemon's lifetime, every worker's copy
   live to the GC. *)
let handle_sweep ~deadline fd body =
  match Api.parse_sweep body with
  | Error msg ->
      respond_error fd 400 msg;
      Client_error
  | Ok s -> (
      match Api.run_sweep ~deadline s with
      | `Expired evaluated ->
          respond_error fd 504
            (Printf.sprintf "deadline expired after %d of %d points" evaluated
               (Api.sweep_points s));
          Timeout
      | `Done points ->
          let buf = Buffer.create 4096 in
          Api.render_sweep_into buf s points;
          if Http.write_response ~headers:json_headers
               ~body:(Buffer.contents buf) fd 200
          then Ok_
          else Aborted)

let handle_request t ~worker ~buf conn req =
  let fd = conn.fd in
  let now = Unix.gettimeofday () in
  let deadline = request_deadline t req ~now in
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" ->
      if Http.write_response ~headers:json_headers ~body:{|{"status":"ok"}|}
           fd 200
      then Ok_
      else Aborted
  | "GET", "/readyz" ->
      let draining = Atomic.get t.stop_flag in
      let status = if draining then 503 else 200 in
      let body =
        if draining then {|{"status":"draining"}|} else {|{"status":"ready"}|}
      in
      if Http.write_response ~headers:json_headers ~body fd status then Ok_
      else Aborted
  | "GET", "/metrics" ->
      let body = scrape t in
      if
        Http.write_response
          ~headers:
            [
              ( "Content-Type",
                "application/openmetrics-text; version=1.0.0; charset=utf-8" );
            ]
          ~body fd 200
      then Ok_
      else Aborted
  | "POST", "/v1/predict" -> handle_predict t ~worker ~deadline ~buf fd req.body
  | "POST", "/v1/sweep" -> handle_sweep ~deadline fd req.body
  | _, ("/healthz" | "/readyz" | "/metrics" | "/v1/predict" | "/v1/sweep") ->
      respond_error fd 405 "method not allowed";
      Client_error
  | _ ->
      respond_error fd 404 "no such endpoint";
      Client_error

let handle_conn t ~worker ~buf conn =
  let header_deadline =
    Deadline.of_budget_ms ~now:(Unix.gettimeofday ()) t.cfg.header_timeout_ms
  in
  match
    Http.read_request ~max_body:t.cfg.max_body ~deadline:header_deadline
      conn.fd
  with
  | Ok req -> (
      match handle_request t ~worker ~buf conn req with
      | outcome -> outcome
      | exception _ ->
          respond_error conn.fd 500 "internal error";
          Server_error)
  | Error (Http.Bad_request msg) ->
      respond_error conn.fd 400 msg;
      Client_error
  | Error Http.Too_large ->
      respond_error conn.fd 413 "request too large";
      Client_error
  | Error Http.Timeout ->
      respond_error conn.fd 408 "request incomplete before header deadline";
      Timeout
  | Error Http.Closed -> Aborted

let worker_loop t ~worker =
  let buf = Buffer.create 4096 in
  let rec loop () =
    match Bounded_queue.pop t.queue with
    | None -> ()  (* queue closed and drained: exit *)
    | Some conn ->
        with_stats t.stats (fun () ->
            t.stats.live_inflight <- t.stats.live_inflight + 1);
        let outcome =
          try handle_conn t ~worker ~buf conn with _ -> Server_error
        in
        Http.discard_close conn.fd;
        with_stats t.stats (fun () ->
            t.stats.live_inflight <- t.stats.live_inflight - 1);
        record_outcome t ~admitted_at:conn.admitted_at outcome;
        loop ()
  in
  loop ()

(* --- accept loop ----------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> (
              let admitted_at = Unix.gettimeofday () in
              (* Responses go out as head and body writes; Nagle would
                 hold the second behind the first's ACK. *)
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              with_stats t.stats (fun () ->
                  Obs.Metrics.inc t.stats.requests);
              match Bounded_queue.try_push t.queue { fd; admitted_at } with
              | `Queued -> ()
              | `Full ->
                  (* Shed at admission: one cheap write, no worker. *)
                  ignore
                    (Http.write_response
                       ~headers:(("Retry-After", "1") :: json_headers)
                       ~body:{|{"error":"server overloaded"}|} fd 429);
                  Http.discard_close fd;
                  record_outcome t ~admitted_at Shed
              | `Closed ->
                  ignore
                    (Http.write_response ~headers:json_headers
                       ~body:{|{"error":"draining"}|} fd 503);
                  Http.discard_close fd;
                  record_outcome t ~admitted_at Aborted))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------- *)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  (* A worker writing to a peer that already hung up must get EPIPE as a
     result, not die of SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 128
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let t =
    {
      cfg;
      listen_fd;
      bound_port;
      queue = Bounded_queue.create ~capacity:cfg.queue_capacity;
      stats = make_stats ();
      breaker =
        Breaker.create ~window:cfg.breaker_window
          ~min_calls:cfg.breaker_min_calls
          ~failure_threshold:cfg.breaker_threshold
          ~cooldown_s:cfg.breaker_cooldown_s ();
      chaos =
        (if Chaos.enabled cfg.chaos then
           Some (Chaos.create ~seed:cfg.seed ~workers:cfg.workers cfg.chaos)
         else None);
      stop_flag = Atomic.make false;
      accept_domain = None;
      worker_domains = [];
      stop_mutex = Mutex.create ();
      stopped = false;
    }
  in
  t.worker_domains <-
    List.init cfg.workers (fun worker ->
        Domain.spawn (fun () -> worker_loop t ~worker));
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  if not cfg.quiet then
    Printf.printf "serving on %s:%d (%d workers, queue %d)\n%!" cfg.host
      bound_port cfg.workers cfg.queue_capacity;
  t

let port t = t.bound_port

let stop t =
  Mutex.lock t.stop_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_mutex)
    (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        Atomic.set t.stop_flag true;
        (match t.accept_domain with
        | Some d ->
            Domain.join d;
            t.accept_domain <- None
        | None -> ());
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (* Workers drain whatever was admitted, then see the closed
           queue and exit — every accepted connection is answered. *)
        Bounded_queue.close t.queue;
        List.iter Domain.join t.worker_domains;
        t.worker_domains <- [];
        if not t.cfg.quiet then
          Printf.printf "drained: every admitted connection answered\n%!"
      end)

let run cfg =
  let signalled = Atomic.make false in
  let on_signal _ = Atomic.set signalled true in
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle on_signal))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_term = install Sys.sigterm in
  let prev_int = install Sys.sigint in
  let t = start cfg in
  (* Signals interrupt the sleep; the backoff ladder (capped at 100 ms
     by the policy below) only bounds the exit latency when they don't. *)
  let wait_policy = Shmpi.Backoff.v ~min_s:0.001 ~max_s:0.1 in
  ignore
    (Shmpi.Backoff.wait_until ~policy:wait_policy ~deadline:infinity
       (fun () -> Atomic.get signalled));
  if not cfg.quiet then
    Printf.printf "signal received, draining...\n%!";
  stop t;
  (match prev_term with
  | Some b -> ignore (Sys.signal Sys.sigterm b)
  | None -> ());
  (match prev_int with
  | Some b -> ignore (Sys.signal Sys.sigint b)
  | None -> ());
  0
