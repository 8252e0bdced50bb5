(* The simulate workload: the [simulate --engine=batched] call path run
   in-process on Sweep3D 32^3 over 2^16 ranks, 2 cores per node with the
   bus on — [Costs.loggp], then [Timeline_stream.create], then
   [Batched.run ~cells], then [Plugplay.time_per_iteration]. The measured
   calls shard the ranks over [domains] domains; the traced run adds the
   1-domain call. The input is fixed, whatever the seed.

   Why the 1-domain call is not in the measured loop: on a 2-core host
   whose memory system is shared with other tenants, its wall time
   drifted by up to +-25% over minutes (interquartile spread 0.14-0.36
   of the median across 10-run sets), about twice the drift of the
   2-domain call. *)

module Stats = Bench_stats.Stats
module Plugplay = Wavefront_core.Plugplay
module Timeline_stream = Obs.Timeline_stream

let ranks = 65_536
let cpn = 2
let setups = 21
let app = Apps.Sweep3d.params (Wgrid.Data_grid.v ~nx:32 ~ny:32 ~nz:32)
let pg = Wgrid.Proc_grid.of_cores ranks
let cmp = Wgrid.Cmp.of_cores_per_node cpn

let waves =
  Sweeps.Schedule.nsweeps app.Wavefront_core.App_params.schedule
  * Wgrid.Tile.ntiles_int ~nz:app.grid.Wgrid.Data_grid.nz ~htile:app.htile

let loggp () = Wrun.Costs.loggp ~model_bus:true ~cmp Loggp.Params.xt4 pg app
let new_stream () = Timeline_stream.create ~ranks ~waves ()

let model_cfg =
  Plugplay.config ~cmp ~cores:ranks (Loggp.Params.with_cores_per_node Loggp.Params.xt4 cpn)

(* Set-up is [Costs.loggp] plus the sink allocation, done [setups] times,
   each from a collected heap; the median is reported. *)
let setup () =
  let times =
    Array.init setups (fun _ ->
        Gc.full_major ();
        let t0 = Obs.Clock.monotonic () in
        let costs = loggp () in
        let stream = new_stream () in
        ignore (Sys.opaque_identity stream);
        ((Obs.Clock.monotonic () -. t0) /. 1e6, costs))
  in
  (snd times.(0), Stats.median (Array.map fst times))

let domains = 2

type call = {
  t0 : float;  (* us *)
  wall_s : float;
  outcome : Wrun.Batched.outcome;
  cells : int;
}

let simulate ?tracer ~costs domains =
  let span name f =
    match tracer with
    | None -> f ()
    | Some tr -> Obs.Tracer.span tr ~cat:"simulate" ~rank:0 name f
  in
  let t0 = Obs.Clock.monotonic () in
  let stream = span "timeline_stream.create" new_stream in
  let outcome =
    span "batched.run+sink" (fun () ->
        Wrun.Batched.run ~cells:(Timeline_stream.sink stream) ~domains ~costs pg app)
  in
  ignore (span "plugplay.time_per_iteration" (fun () ->
      Plugplay.time_per_iteration app model_cfg));
  { t0; wall_s = (Obs.Clock.monotonic () -. t0) /. 1e6; outcome;
    cells = Timeline_stream.cells stream }

(* Calls until [seconds] have passed (at least one); returns the start
   (us) and the calls. Each call starts from a collected heap, so neither
   its time nor the peak RSS depends on the garbage the previous call
   left behind. *)
let calls ~seconds ~costs =
  let start = Obs.Clock.monotonic () in
  let stop = start +. (seconds *. 1e6) in
  let rec go acc =
    Gc.full_major ();
    let acc = simulate ~costs domains :: acc in
    if Obs.Clock.monotonic () >= stop then List.rev acc else go acc
  in
  (start, go [])

(* The oracle: every call completed; [messages] and [elapsed] are
   bitwise equal across calls and domain counts; the sink saw one cell
   per (rank, wave column), epilogue included, per iteration. *)
let correct ~first c =
  let o = c.outcome and o0 = first.outcome in
  o.completed
  && o.messages = o0.messages
  && Int64.bits_of_float o.elapsed = Int64.bits_of_float o0.elapsed
  && c.cells = ranks * (waves + 1) * o.iterations

let wall_s calls = Array.of_list (List.map (fun c -> c.wall_s) calls)

let end_to_end ~setup_s ~seconds (start, calls) =
  let rate work =
    Window.rate ~start ~seconds
      (List.map (fun c -> (c.t0, c.t0 +. (c.wall_s *. 1e6), work c)) calls)
  in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", rate (fun _ -> 1.0), "1/s");
    ("op_p50_ms", Stats.quantile (wall_s calls) 0.5 *. 1e3, "ms");
    ("op_p90_ms", Stats.quantile (wall_s calls) 0.9 *. 1e3, "ms");
    ("cells_per_s", rate (fun c -> float_of_int c.cells), "1/s");
    ("peak_rss_mb", Daemon.peak_rss_mb (Unix.getpid ()), "MB");
  ]

let class_figures calls =
  [
    ("class.simulate_2dom_s", Stats.median (wall_s calls), "s");
    ("requests.simulate", float_of_int (List.length calls), "count");
  ]

(* --- the traced run's layer map ----------------------------------------- *)

(* [Replay.timed] in seconds. *)
let timed tr name f =
  let v, us = Replay.timed tr name f in
  (v, us /. 1e6)

(* Seconds per call of [f], over [n] calls. *)
let per_call n f =
  let t0 = Obs.Clock.monotonic () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Obs.Clock.monotonic () -. t0) /. 1e6 /. float_of_int n

let steps = 2_000_000

(* The traced run's layers, and its 1-domain call for the cross-domain
   oracle. The reconciled figure is the untraced median 2-domain call. *)
let per_layer tr ~costs ~untraced =
  let bare d =
    Gc.full_major ();
    snd (timed tr (Printf.sprintf "batched.run/%dd" d) (fun () ->
        Wrun.Batched.run ~domains:d ~costs pg app))
  in
  let bare1 = bare 1 and bare2 = bare 2 in
  let traced d =
    Gc.full_major ();
    timed tr (Printf.sprintf "simulate/%dd" d) (fun () -> simulate ~tracer:tr ~costs d)
  in
  (* [Gc.minor_words] counts the calling domain only: measure the
     1-domain call. *)
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let words0 = Gc.minor_words () in
  let c1, call1 = traced 1 in
  let words = Gc.minor_words () -. words0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let _, call2 = traced 2 in
  let create = per_call 100 new_stream in
  let model = per_call 100 (fun () -> Plugplay.time_per_iteration app model_cfg) in
  let probe = Wrun.Batched.Steady.probe ~costs pg app in
  let (), step_s =
    timed tr "batched.steady.step" (fun () ->
        for _ = 1 to steps do
          Wrun.Batched.Steady.step probe
        done)
  in
  let step_ns = step_s /. float_of_int steps *. 1e9 in
  let rank_waves = ranks * waves * c1.outcome.iterations in
  let sink1 = call1 -. bare1 -. create -. model
  and sink2 = call2 -. bare2 -. create -. model in
  let untraced_us = Stats.median (wall_s untraced) *. 1e6 in
  let layer_sum = (create +. bare2 +. sink2 +. model) *. 1e6 in
  ( c1,
    [
      ("costs.loggp_65536_ms", per_call 10_000 loggp *. 1e3, "ms");
      ("batched.engine_s", bare1, "s");
      ("batched.shard_speedup", bare1 /. bare2, "ratio");
      ("batched.step_ns", step_ns, "ns");
      ("batched.rank_waves", float_of_int rank_waves, "count");
      ("batched.residual_s", bare1 -. (step_ns *. float_of_int rank_waves /. 1e9), "s");
      ("timeline_stream.create_ms", create *. 1e3, "ms");
      ("timeline_stream.sink_s", sink1, "s");
      ("timeline_stream.sink_2dom_s", sink2, "s");
      ("plugplay.time_per_iteration_ms", model *. 1e3, "ms");
      ("class.simulate_s", c1.wall_s, "s");
      ("gc.minor_words_per_op", words, "words");
      ("gc.major_collections", float_of_int majors, "count");
      ("reconcile.e2e_untraced_us", untraced_us, "us");
      ("reconcile.layer_sum_us", layer_sum, "us");
      ("reconcile.residual_us", untraced_us -. layer_sum, "us");
      ("trace_overhead_us", (call2 *. 1e6) -. untraced_us, "us");
    ] )
