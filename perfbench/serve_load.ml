(* The predict and design workloads: the shipped [wavefront serve]
   daemon in its own process (so the generator's allocations never pause
   the daemon's worker domains), driven closed-loop by [clients]
   connections, each waiting for its reply before sending the next. *)

module Stats = Bench_stats.Stats

let clients = 2
let workers () = Domain.recommended_domain_count ()
let setups = 3

type record = { op : Gen.op; t0 : float; t1 : float; reply : Daemon.reply }

let op_name = function
  | Gen.Predict _ -> "client.predict"
  | Gen.Validate _ -> "client.validate"
  | Gen.Sweep _ -> "client.sweep"

(* One measured window: every client sends until [seconds] have passed
   (a request in flight at the deadline completes). Returns the window's
   start (us) and every request. *)
let window ?tracers ~port ~pools ~kind ~seed ~seconds () =
  let start = Obs.Clock.monotonic () in
  let stop = start +. (seconds *. 1e6) in
  let client c =
    let next = Gen.schedule ~seed ~client:c kind in
    let rec loop acc =
      if Obs.Clock.monotonic () >= stop then acc
      else begin
        let op = next () in
        let path, body = Gen.body pools op in
        let t0 = Obs.Clock.monotonic () in
        let reply = Daemon.request ~body ~port "POST" path in
        let t1 = Obs.Clock.monotonic () in
        Option.iter
          (fun trs ->
            Obs.Tracer.record trs.(c) ~cat:"client" ~rank:c ~start:t0
              ~dur:(t1 -. t0) (op_name op))
          tracers;
        loop ({ op; t0; t1; reply } :: acc)
      end
    in
    loop []
  in
  let others =
    List.init (clients - 1) (fun c -> Domain.spawn (fun () -> client (c + 1)))
  in
  let first = client 0 in
  (start, List.concat (first :: List.map Domain.join others))

(* Requests that prime a fresh daemon before anything is timed: one pass
   over the predict pool, and for design a few validated predicts and
   the smallest sweep. *)
let warm_up_ops kind =
  List.init Gen.predict_pool_size (fun i -> Gen.Predict i)
  @
  match kind with
  | `Predict -> []
  | `Design -> Gen.Sweep 0 :: List.init 4 (fun i -> Gen.Validate i)

(* Spawn + ready + warm-up, [setups] times; the last daemon stays up.
   Set-up time is the median. *)
let setup ~exe ~pools ~kind =
  let rec go n times =
    let t0 = Obs.Clock.monotonic () in
    match Daemon.spawn ~exe ~workers:(workers ()) with
    | Error e -> Error e
    | Ok d ->
        List.iter
          (fun op ->
            let path, body = Gen.body pools op in
            ignore (Daemon.request ~body ~port:d.Daemon.port "POST" path))
          (warm_up_ops kind);
        let times = ((Obs.Clock.monotonic () -. t0) /. 1e6) :: times in
        if n <= 1 then Ok (d, Stats.median (Array.of_list times))
        else begin
          Daemon.stop d;
          go (n - 1) times
        end
  in
  go setups []

(* --- summaries ---------------------------------------------------------- *)

type summary = {
  attempted : int;
  failed : int;
  start : float;  (* us *)
  seconds : float;
  ok : record list;
}

let summarize oracle ~seconds (start, records) =
  let ok = List.filter (fun r -> Oracle.correct oracle r.op r.reply) records in
  {
    attempted = List.length records;
    failed = List.length records - List.length ok;
    start;
    seconds;
    ok;
  }

(* Work per second over the window, [f] giving each reply's work. *)
let rate s f =
  Window.rate ~start:s.start ~seconds:s.seconds
    (List.map (fun r -> (r.t0, r.t1, f r)) s.ok)

let latencies_ms pred s =
  Array.of_list
    (List.filter_map
       (fun r -> if pred r.op then Some ((r.t1 -. r.t0) /. 1e3) else None)
       s.ok)

let quantile q a = if Array.length a = 0 then nan else Stats.quantile a q
let is_predict = function Gen.Predict _ -> true | _ -> false
let is_validate = function Gen.Validate _ -> true | _ -> false
let is_sweep = function Gen.Sweep _ -> true | _ -> false

let cells (pools : Gen.pools) = function
  | Gen.Predict i -> pools.predicts.(i).p_cores
  | Gen.Validate i -> pools.validates.(i).p_cores
  | Gen.Sweep i -> pools.sweeps.(i).s_cells

let mean_us records =
  List.fold_left (fun a r -> a +. (r.t1 -. r.t0)) 0.0 records
  /. float_of_int (max 1 (List.length records))

(* The end-to-end metrics of one untraced window. *)
let end_to_end ~pools ~setup_s ~rss s =
  let predicts = latencies_ms is_predict s in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", rate s (fun _ -> 1.0), "1/s");
    ("op_p50_ms", quantile 0.5 predicts, "ms");
    ("op_p90_ms", quantile 0.9 predicts, "ms");
    ("cells_per_s", rate s (fun r -> float_of_int (cells pools r.op)), "1/s");
    ("peak_rss_mb", rss, "MB");
  ]

(* The workload's figures in per-class terms, printed for reading and
   reported by the traced run; classes the workload never sends are left
   out. *)
let class_figures ~(pools : Gen.pools) s =
  let count p = float_of_int (List.length (List.filter (fun r -> p r.op) s.ok)) in
  let points r = match r.op with Gen.Sweep i -> float_of_int pools.sweeps.(i).s_points | _ -> 0.0 in
  List.filter
    (fun (_, v, _) -> Float.is_finite v && v <> 0.0)
    [
      ("class.rps", rate s (fun _ -> 1.0), "1/s");
      ("class.predict_p50_ms", quantile 0.5 (latencies_ms is_predict s), "ms");
      ("class.predict_p90_ms", quantile 0.9 (latencies_ms is_predict s), "ms");
      ("class.validate_p50_ms", quantile 0.5 (latencies_ms is_validate s), "ms");
      ("class.sweep_p50_ms", quantile 0.5 (latencies_ms is_sweep s), "ms");
      ("class.sweep_points_per_s", rate s points, "1/s");
      ("requests.predict", count is_predict, "count");
      ("requests.validate", count is_validate, "count");
      ("requests.sweep", count is_sweep, "count");
    ]

(* --- the traced run's layer map ----------------------------------------- *)

(* [Costs.loggp] at the validation grid (64 ranks), ms per call. *)
let loggp_64_ms () =
  let app = Apps.Sweep3d.p1b () in
  let pg = Wgrid.Proc_grid.of_cores 64 and cmp = Wgrid.Cmp.of_cores_per_node 2 in
  let n = 10_000 in
  let t0 = Obs.Clock.monotonic () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Wrun.Costs.loggp ~model_bus:true ~cmp Loggp.Params.xt4 pg app))
  done;
  (Obs.Clock.monotonic () -. t0) /. float_of_int n /. 1e3

(* Per-layer metrics of a serve workload. [untraced] and [traced] are
   the two windows' summaries; [daemon_us] the daemon's own mean latency
   over the traced window ([serve_latency_us] sum / count). The layer sum
   is the traced client mean by construction (transport and in-daemon
   time are differences), so the residual is minus the tracing overhead:
   one number, reported as [reconcile.residual_us]; the overhead is
   printed only. The traced window's per-class counts are printed too,
   so the layer sum can be rebuilt from the per-call metrics. *)
let per_layer ~kind ~(pools : Gen.pools) ~untraced ~traced ~daemon_us ~replay
    ~majors =
  let get = Replay.get replay in
  let n = float_of_int (List.length traced.ok) in
  let per k d = if d = 0.0 then 0.0 else get k /. d in
  let predicts = get "predicts" and sweeps = get "sweeps" and points = get "points" in
  let client_us = mean_us traced.ok and untraced_us = mean_us untraced.ok in
  let transport = client_us -. daemon_us and in_daemon = daemon_us -. (get "api" /. n) in
  let layer_sum = transport +. in_daemon +. (get "api" /. n) in
  let all = untraced.ok @ traced.ok in
  let predict_cores =
    List.filter_map
      (fun r -> match r.op with Gen.Sweep _ -> None | op -> Some (cells pools op))
      all
  in
  let over_sweeps f =
    List.fold_left
      (fun a r -> match r.op with Gen.Sweep i -> a + f pools.sweeps.(i) | _ -> a)
      0 all
  in
  let shared = over_sweeps (fun s -> s.Gen.s_shared)
  and sweep_points = over_sweeps (fun s -> s.Gen.s_points) in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let count p = float_of_int (List.length (List.filter (fun r -> p r.op) traced.ok)) in
  [
    ("serve.transport_us", transport, "us");
    ("serve.in_daemon_us", in_daemon, "us");
    ("api.parse_predict_us", per "parse_predict" predicts, "us");
    ("api.parse_sweep_us", per "parse_sweep" sweeps, "us");
    ("api.serialize_predict_us", per "serialize" predicts, "us");
    ("api.run_sweep_ms", per "run_sweep" sweeps /. 1e3, "ms");
    ("api.render_sweep_ms", per "render" sweeps /. 1e3, "ms");
    ("api.pareto_us", per "pareto" sweeps, "us");
    ("api.validate_run_ms", per "validate_run" (get "validates") /. 1e3, "ms");
    ("plugplay.eval_create_us", per "eval_create" predicts, "us");
    ("plugplay.eval_run_us", per "eval_run" predicts, "us");
    ("plugplay.create_over_run", per "eval_create" (get "eval_run"), "ratio");
    ("plugplay.iteration_us_per_point", per "iteration" points, "us");
    ("recover.expected_term_us", per "expected_term" points, "us");
    ("costs.loggp_64_ms", (match kind with `Design -> loggp_64_ms () | `Predict -> 0.0), "ms");
    ("gc.minor_words_per_op", get "words" /. n, "words");
    ("gc.major_collections", float_of_int majors, "count");
    ("sweep.shared_point_frac", frac shared sweep_points, "ratio");
    ( "predict.large_core_frac",
      frac (List.length (List.filter (fun c -> c >= 4096) predict_cores))
        (List.length predict_cores),
      "ratio" );
    ("reconcile.e2e_untraced_us", untraced_us, "us");
    ("reconcile.layer_sum_us", layer_sum, "us");
    ("reconcile.residual_us", untraced_us -. layer_sum, "us");
    ("trace_overhead_us", client_us -. untraced_us, "us");
    ("traced.requests", n, "count");
    ("traced.predict", count is_predict, "count");
    ("traced.validate", count is_validate, "count");
    ("traced.sweep", count is_sweep, "count");
  ]
