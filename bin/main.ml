(* The wavefront command-line tool: predictions, validation runs, parameter
   fitting and figure regeneration for the plug-and-play wavefront model. *)

open Cmdliner
open Wavefront_core

(* --- Shared argument parsing --- *)

(* A usage error: one "wavefront: ..." line on stderr, then exit 2. *)
let usage_error fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "wavefront: %s@." m;
      exit 2)
    fmt

(* Every output file a subcommand writes goes through here (--metrics-out
   aside, whose failure is only a warning). A path that cannot be written
   is one "cannot write <what>" line on stderr and exit 1. The file is
   opened as soon as [what] and [path] are applied, so a subcommand can
   fail before a long run; [emit] then gets the file's writer, and [note]
   extends the success line. *)
let write_file what path =
  let fail m =
    Fmt.epr "wavefront: cannot write %s: %s@." what m;
    exit 1
  in
  let oc = try open_out path with Sys_error m -> fail m in
  fun ?(note = "") emit ->
    (try
       emit (output_string oc);
       close_out oc
     with Sys_error m ->
       close_out_noerr oc;
       fail m);
    Fmt.pr "%s written to %s%s@." what path note

let app_names = [ "lu"; "sweep3d"; "chimaera" ]

let app_arg =
  let doc = Fmt.str "Application: %s." (String.concat ", " app_names) in
  Arg.(value & opt (enum (List.map (fun n -> (n, n)) app_names)) "sweep3d"
       & info [ "a"; "app" ] ~docv:"APP" ~doc)

let grid_arg =
  let doc = "Problem size as NX,NY,NZ (or a single N for a cube)." in
  let parse s =
    match String.split_on_char ',' s |> List.map int_of_string_opt with
    | [ Some n ] -> Ok (Wgrid.Data_grid.cube n)
    | [ Some nx; Some ny; Some nz ] -> Ok (Wgrid.Data_grid.v ~nx ~ny ~nz)
    | _ -> Error (`Msg "expected N or NX,NY,NZ")
  in
  let print ppf (g : Wgrid.Data_grid.t) = Wgrid.Data_grid.pp ppf g in
  Arg.(value
       & opt (conv (parse, print)) (Wgrid.Data_grid.cube 240)
       & info [ "g"; "grid" ] ~docv:"GRID" ~doc)

let cores_arg =
  Arg.(value & opt int 1024
       & info [ "p"; "cores" ] ~docv:"P" ~doc:"Total number of cores.")

let cpn_arg =
  Arg.(value & opt int 2
       & info [ "cores-per-node" ] ~docv:"C"
           ~doc:"Cores per node (1, 2, 4, 8 or 16).")

let htile_arg =
  Arg.(value & opt (some float) None
       & info [ "htile" ] ~docv:"H" ~doc:"Override the tile height Htile.")

let wg_arg =
  Arg.(value & opt (some float) None
       & info [ "wg" ] ~docv:"US"
           ~doc:"Override the per-cell computation time Wg (us).")

let iterations_arg =
  Arg.(value & opt (some int) None
       & info [ "iterations" ] ~docv:"N"
           ~doc:"Wavefront iterations per time step.")

let groups_arg =
  Arg.(value & opt int 1
       & info [ "energy-groups" ] ~docv:"N" ~doc:"Energy groups per time step.")

let steps_arg =
  Arg.(value & opt int 1
       & info [ "time-steps" ] ~docv:"N" ~doc:"Time steps in the run.")

let platform_arg =
  let doc = "Platform parameters: xt4 or sp2." in
  Arg.(value
       & opt (enum [ ("xt4", Loggp.Params.xt4); ("sp2", Loggp.Params.sp2) ])
           Loggp.Params.xt4
       & info [ "platform" ] ~docv:"PLATFORM" ~doc)

let spec_arg =
  Arg.(value & opt (some file) None
       & info [ "spec" ] ~docv:"FILE"
           ~doc:
             "Model the application described by a KEY = VALUE spec file \
              instead of a built-in benchmark (see Apps.Spec).")

let make_app ?spec name grid ~htile ~wg ~iterations =
  let app =
    match spec with
    | Some path -> (
        match Apps.Spec.of_file path with
        | Ok app -> app
        | Error (`Msg m) -> usage_error "%s: %s" path m)
    | None -> (
        match name with
        | "lu" -> Apps.Lu.params ?wg ?iterations grid
        | "sweep3d" -> Apps.Sweep3d.params ?wg ?iterations grid
        | "chimaera" -> Apps.Chimaera.params ?wg ?iterations grid
        | _ -> assert false)
  in
  match htile with Some h -> App_params.with_htile app h | None -> app

let make_cfg platform ~cores ~cpn =
  let platform = Loggp.Params.with_cores_per_node platform cpn in
  Plugplay.config ~cmp:(Wgrid.Cmp.of_cores_per_node cpn) platform ~cores

let engine_arg =
  let doc =
    "Simulation engine: event (the event-level simulator: fibers, bus \
     contention, rank ceiling) or batched (the wave-batched flat-array \
     engine that also evaluates every report's analytic term schedule; \
     scales to millions of ranks)."
  in
  Arg.(value & opt (enum Harness.Engine.all) Harness.Engine.Event
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* --capacity, shared by every subcommand that traces; a capacity below 1
   is a usage error (exit 2). *)
let capacity_arg =
  let check = function
    | Some c when c < 1 -> usage_error "--capacity must be at least 1"
    | c -> c
  in
  Term.(
    const check
    $ Arg.(value & opt (some int) None
           & info [ "capacity" ] ~docv:"N"
               ~doc:"Per-tracer span capacity (drops are reported)."))

(* The perturbation a subcommand runs on [ranks] ranks: --perturb on the
   command line, then the spec file's perturb stanza, then the zero spec (a
   do-nothing control run). A bad clause, a bad spec file or a clause naming
   a rank the run does not have is a usage error (exit 2), caught here
   before any substrate starts. *)
let resolve_perturb ~ranks spec pspec =
  let source, p =
    match (pspec, spec) with
    | Some s, _ -> (
        match Perturb.Spec.of_string s with
        | Ok p -> ("--perturb", p)
        | Error (`Msg m) -> usage_error "--perturb: %s" m)
    | None, None -> ("", Perturb.Spec.zero)
    | None, Some path -> (
        match Apps.Spec.full_of_file path with
        | Ok { perturb; _ } ->
            (path, Option.value perturb ~default:Perturb.Spec.zero)
        | Error (`Msg m) -> usage_error "%s: %s" path m)
  in
  let top = Perturb.Spec.max_rank p in
  if top >= ranks then
    usage_error "%s names rank %d but the run has only %d ranks" source top
      ranks;
  p

let no_bus_arg =
  Arg.(value & flag
       & info [ "no-bus" ]
           ~doc:
             "Switch off the shared-bus contention layer (event engine: the \
              per-node bus clock; batched engine: the closed-form Table-6 \
              interference charges). With single-core nodes the bus never \
              fires, so this flag changes nothing.")

(* The event engine's rank ceiling, as a CLI error instead of an escaped
   exception: the registered printer already points at --engine=batched. *)
let or_rank_ceiling f =
  try f ()
  with Xtsim.Wavefront_sim.Rank_ceiling _ as e ->
    usage_error "%s" (Printexc.to_string e)

let waves_of (app : App_params.t) =
  Sweeps.Schedule.nsweeps app.schedule
  * Wgrid.Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile

(* --- Observability context: --metrics-out / --ledger, every subcommand --- *)

(* Parsed once per invocation; the start-of-run runtime sample is taken
   when Cmdliner evaluates the term, so the ledger's duration and
   runtime section cover everything from argument parsing on. *)
module Obs_ctx = struct
  type t = {
    metrics_out : string option;
    ledger_path : string option;
    no_ledger : bool;
    t0 : float;  (* unix seconds; the ledger record's timestamp *)
    start : Obs.Runtime.sample;
  }

  let term =
    let metrics_out =
      Arg.(value & opt (some string) None
           & info [ "metrics-out" ] ~docv:"FILE"
               ~doc:
                 "Write an OpenMetrics/Prometheus text exposition of the \
                  run's metrics (runtime gauges, outcome numbers, any \
                  registry the subcommand kept) to FILE, labelled with the \
                  subcommand and engine.")
    in
    let ledger =
      Arg.(value & opt (some string) None
           & info [ "ledger" ] ~docv:"FILE"
               ~doc:
                 (Fmt.str
                    "Run-ledger file this invocation is appended to \
                     (default %s)."
                    Obs.Ledger.default_path))
    in
    let no_ledger =
      Arg.(value & flag
           & info [ "no-ledger" ]
               ~doc:"Do not append this invocation to the run ledger.")
    in
    let make metrics_out ledger_path no_ledger =
      {
        metrics_out;
        ledger_path;
        no_ledger;
        t0 = Unix.gettimeofday ();
        start = Obs.Runtime.sample ();
      }
    in
    Term.(const make $ metrics_out $ ledger $ no_ledger)

  (* Record the invocation: an OpenMetrics exposition when asked for, one
     ledger line unless opted out. [kv] holds the subcommand's key outcome
     numbers — exposed as outcome.* gauges and judged by `runs compare`;
     [metrics] is an existing registry to expose alongside them; [config]
     is a canonical argument string (hashed, so `runs list` can group
     like-for-like runs); [spec] the --spec file to digest. Write
     failures are warnings: observability must not fail the run it
     records. *)
  let finish ?metrics ?(engine = "") ?spec ?config ?(kv = []) ctx subcommand =
    let d = Obs.Runtime.delta ctx.start (Obs.Runtime.sample ()) in
    (match ctx.metrics_out with
    | None -> ()
    | Some path -> (
        let reg =
          match metrics with Some m -> m | None -> Obs.Metrics.create ()
        in
        List.iter
          (fun (k, v) ->
            Obs.Metrics.set (Obs.Metrics.gauge reg ("outcome." ^ k)) v)
          kv;
        Obs.Runtime.to_metrics reg d;
        let labels =
          ("subcommand", subcommand)
          :: (if engine = "" then [] else [ ("engine", engine) ])
        in
        match open_out path with
        | exception Sys_error m ->
            Fmt.epr "wavefront: cannot write metrics: %s@." m
        | oc ->
            output_string oc (Obs.Openmetrics.render ~labels reg);
            close_out oc;
            Fmt.pr "metrics written to %s@." path));
    if not ctx.no_ledger then begin
      let config_hash =
        match config with
        | None -> ""
        | Some c -> String.sub (Digest.to_hex (Digest.string c)) 0 12
      in
      let spec_digest =
        match spec with
        | None -> ""
        | Some p -> ( try Digest.to_hex (Digest.file p) with Sys_error _ -> "")
      in
      let r =
        Obs.Ledger.v ~engine ~config_hash ~spec_digest
          ~git:(Obs.Ledger.git_describe ()) ~metrics:kv
          ~runtime:(Obs.Runtime.delta_kv d) ~timestamp:ctx.t0
          ~duration_s:d.Obs.Runtime.wall_s subcommand
      in
      match Obs.Ledger.append ?path:ctx.ledger_path r with
      | Ok () -> ()
      | Error m -> Fmt.epr "wavefront: ledger: %s@." m
    end

  let engine_name : Harness.Engine.t -> string = function
    | Event -> "event"
    | Batched -> "batched"
end

let bool01 b = if b then 1.0 else 0.0

(* --- predict --- *)

let predict spec app_name grid cores cpn htile wg iterations groups steps
    platform ctx =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let cfg = make_cfg platform ~cores ~cpn in
  let r = Plugplay.iteration app cfg in
  let run = Predictor.run ~energy_groups:groups ~time_steps:steps () in
  let total = Predictor.total_time ~run app cfg in
  Fmt.pr "@[<v>%a@,@,platform: %s, %d cores (%d/node)@,%a@,@,\
          per time step: %a (%d iterations x %d groups)@,\
          total (%d steps): %a (%.2f days)@]@."
    App_params.pp app platform.Loggp.Params.name cores cpn Plugplay.pp_result
    r Units.pp_time
    (float_of_int groups *. Predictor.time_step_time app cfg)
    app.iterations groups steps Units.pp_time total (Units.to_days total);
  Obs_ctx.finish ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s" app.App_params.name Wgrid.Data_grid.pp
         app.grid cores cpn platform.Loggp.Params.name)
    ~kv:[ ("t_iteration", r.t_iteration); ("total_us", total) ]
    ctx "predict"

let predict_cmd =
  let doc = "Predict wavefront execution time with the plug-and-play model" in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(const predict $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ groups_arg $ steps_arg
          $ platform_arg $ Obs_ctx.term)

(* --- explain --- *)

let explain spec app_name grid cores cpn htile wg iterations platform ctx =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let cfg = make_cfg platform ~cores ~cpn in
  Fmt.pr "%a@." (fun ppf () -> Explain.worksheet ppf app cfg) ();
  Fmt.pr "@.%a@." Sensitivity.pp (Sensitivity.analyze app cfg);
  Obs_ctx.finish ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s" app.App_params.name Wgrid.Data_grid.pp
         app.grid cores cpn platform.Loggp.Params.name)
    ~kv:[ ("t_iteration", Plugplay.time_per_iteration app cfg) ]
    ctx "explain"

let explain_cmd =
  let doc = "Show the full model worksheet and input sensitivities" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const explain $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ Obs_ctx.term)

(* --- simulate --- *)

let simulate spec app_name grid cores cpn htile wg iterations engine no_bus
    domains max_ranks tl_json tl_csv ctx =
  if domains < 1 then usage_error "--domains must be at least 1";
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let pg = Wgrid.Proc_grid.of_cores cores in
  let cmp = Wgrid.Cmp.of_cores_per_node cpn in
  let cfg = make_cfg Loggp.Params.xt4 ~cores ~cpn in
  let model = Plugplay.time_per_iteration app cfg in
  let model_line per_iteration =
    Fmt.pr "model prediction: %a/iteration (error %+.2f%%)@." Units.pp_time
      model
      (100.0 *. (model -. per_iteration) /. per_iteration)
  in
  let finish kv =
    Obs_ctx.finish ?spec
      ~engine:(Obs_ctx.engine_name engine)
      ~config:
        (Fmt.str "%s|%a|p%d|c%d|bus%b|d%d" app.App_params.name
           Wgrid.Data_grid.pp app.grid cores cpn (not no_bus) domains)
      ~kv ctx "simulate"
  in
  match (engine : Harness.Engine.t) with
  | Event ->
      let machine =
        Xtsim.Machine.v ~model_bus:(not no_bus) ~cmp Loggp.Params.xt4 pg
      in
      Fmt.pr "simulating %s on %a...@." app.App_params.name Xtsim.Machine.pp
        machine;
      let o =
        or_rank_ceiling (fun () ->
            Xtsim.Wavefront_sim.run ?max_ranks machine app)
      in
      Fmt.pr "%a@." Xtsim.Wavefront_sim.pp_outcome o;
      model_line o.per_iteration;
      finish
        [ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed);
          ("events", float_of_int o.events) ]
  | Batched ->
      let costs =
        Wrun.Costs.loggp ~model_bus:(not no_bus) ~cmp Loggp.Params.xt4 pg app
      in
      Fmt.pr "simulating %s on %a (wave-batched, %d domain(s))...@."
        app.App_params.name Wgrid.Proc_grid.pp pg domains;
      (* Stream per-cell analytics into the bounded accumulator; the
         dense grid is out of reach at the rank counts this engine is
         for. *)
      let stream =
        Obs.Timeline_stream.create ~ranks:cores ~waves:(waves_of app) ()
      in
      let o =
        Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink stream) ~domains
          ~costs pg app
      in
      Fmt.pr "%a@." Wrun.Batched.pp_outcome o;
      model_line o.per_iteration;
      let total m =
        let acc = ref 0.0 in
        for col = 0 to o.waves do
          acc := !acc +. Obs.Timeline_stream.column_total stream m col
        done;
        !acc
      in
      Fmt.pr
        "streamed analytics: %d cells into a %dx%d bucket grid; totals \
         busy %a, wait %a, idle %a@."
        (Obs.Timeline_stream.cells stream)
        (Obs.Timeline_stream.rank_buckets stream)
        (Obs.Timeline_stream.wave_buckets stream)
        Units.pp_time (total Obs.Timeline.Busy) Units.pp_time
        (total Obs.Timeline.Wait) Units.pp_time (total Obs.Timeline.Idle);
      Option.iter
        (fun p ->
          write_file "timeline-stream JSON" p
            (Obs.Timeline_stream.emit_json ~label:"simulate" stream))
        tl_json;
      Option.iter
        (fun p ->
          write_file "timeline-stream CSV" p
            (Obs.Timeline_stream.emit_csv stream))
        tl_csv;
      finish
        [ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed);
          ("messages", float_of_int o.messages);
          ("completed", bool01 o.completed) ]

let simulate_cmd =
  let doc =
    "Execute the wavefront code on the simulated machine (event-level or \
     wave-batched engine)"
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:
               "Shard the batched engine's ranks across N OCaml domains \
                (results are bitwise-identical for every N; event engine: \
                ignored).")
  in
  let max_ranks =
    Arg.(value & opt (some int) None
         & info [ "max-ranks" ] ~docv:"N"
             ~doc:
               (Fmt.str
                  "Raise (or lower) the event engine's rank ceiling \
                   (default %d)."
                  Xtsim.Wavefront_sim.default_max_ranks))
  in
  let tl_json =
    Arg.(value & opt (some string) None
         & info [ "timeline-json" ] ~docv:"FILE"
             ~doc:
               "Write the batched engine's streamed timeline analytics as \
                chunked JSON (schema wavefront-timeline-stream/v1).")
  in
  let tl_csv =
    Arg.(value & opt (some string) None
         & info [ "timeline-csv" ] ~docv:"FILE"
             ~doc:
               "Write the batched engine's streamed timeline analytics as \
                chunked CSV.")
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const simulate $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ engine_arg $ no_bus_arg
          $ domains $ max_ranks $ tl_json $ tl_csv $ Obs_ctx.term)

(* --- validate --- *)

let validate spec app_name grid cores htile wg iterations ctx =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let pg = Wgrid.Proc_grid.of_cores cores in
  Fmt.pr "validating %s on %a (reference dataflow backend)...@."
    app.App_params.name Wgrid.Proc_grid.pp pg;
  let t0 = Unix.gettimeofday () in
  let o = Wrun.Dataflow.run pg app in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Fmt.pr "%a (%.0f ms)@." Wrun.Dataflow.pp_outcome o elapsed_ms;
  List.iter (fun m -> Fmt.epr "  mismatch: %s@." m) o.mismatches;
  Obs_ctx.finish ?spec
    ~config:
      (Fmt.str "%s|%a|p%d" app.App_params.name Wgrid.Data_grid.pp app.grid
         cores)
    ~kv:
      [ ("completed", bool01 o.completed); ("wall_ms", elapsed_ms);
        ("mismatches", float_of_int (List.length o.mismatches)) ]
    ctx "validate";
  if not o.completed || o.mismatches <> [] then exit 1

let validate_cmd =
  let doc =
    "Check a schedule deadlocks nowhere and every rank agrees on the \
     message sequence, on the fast reference dataflow backend (no \
     simulation clock; scales to 100K+ ranks)"
  in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(const validate $ spec_arg $ app_arg $ grid_arg $ cores_arg
          $ htile_arg $ wg_arg $ iterations_arg $ Obs_ctx.term)

(* --- figure --- *)

let scale_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Include the large (slow) simulation points.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write each table as DIR/<id>.csv.")

(* A directory that cannot be made is reported by the write into it. *)
let write_csv dir (t : Harness.Table.t) =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  write_file "table CSV"
    (Filename.concat dir (String.lowercase_ascii t.id ^ ".csv"))
    (fun w -> w (Harness.Table.to_csv t))

let figure ids full csv ctx =
  let scale = if full then Harness.Experiments.Full else Quick in
  let run f =
    let artifacts = f () in
    List.iter (Harness.Experiments.render_artifact Fmt.stdout) artifacts;
    Option.iter
      (fun dir ->
        List.iter
          (function
            | Harness.Experiments.Table t -> write_csv dir t
            | Plot _ -> ())
          artifacts)
      csv
  in
  (* Every id is checked before the first experiment runs. *)
  let experiments =
    match ids with
    | [] -> List.map snd (Harness.Experiments.all ~scale ())
    | ids ->
        List.map
          (fun id ->
            match Harness.Experiments.find ~scale id with
            | Some f -> f
            | None ->
                usage_error "unknown experiment %S (known: %s)" id
                  (String.concat ", " (Harness.Experiments.ids ())))
          ids
  in
  List.iter run experiments;
  Obs_ctx.finish
    ~config:(Fmt.str "%s|full%b" (String.concat "," ids) full)
    ~kv:[ ("experiments", float_of_int (max 1 (List.length ids))) ]
    ctx "figure"

let figure_cmd =
  let doc = "Regenerate the paper's tables and figures (all, or by id)" in
  let ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:
               (Fmt.str "Experiment ids: %s."
                  (String.concat ", " (Harness.Experiments.ids ()))))
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(const figure $ ids $ scale_arg $ csv_arg $ Obs_ctx.term)

(* --- scale --- *)

let scaling app_name grid cpn htile wg iterations ctx =
  let app = make_app app_name grid ~htile ~wg ~iterations in
  let rows =
    Metrics.strong_scaling ~cmp:(Wgrid.Cmp.of_cores_per_node cpn)
      ~platform:Loggp.Params.xt4
      ~core_counts:[ 64; 256; 1024; 4096; 16384; 65536 ]
      app
  in
  Fmt.pr "%a on the XT4 (%d cores/node):@." App_params.pp app cpn;
  Fmt.pr "  %8s %14s %10s %10s@." "cores" "t/iter" "speedup" "efficiency";
  List.iter
    (fun (r : Metrics.scaling_row) ->
      Fmt.pr "  %8d %14s %10.1f %9.1f%%@." r.cores
        (Fmt.str "%a" Units.pp_time r.t_iteration)
        r.speedup (100.0 *. r.efficiency))
    rows;
  Obs_ctx.finish
    ~config:
      (Fmt.str "%s|%a|c%d" app.App_params.name Wgrid.Data_grid.pp app.grid
         cpn)
    ~kv:[ ("rows", float_of_int (List.length rows)) ]
    ctx "scale"

let scale_cmd =
  let doc = "Strong-scaling table: time, speedup, efficiency" in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const scaling $ app_arg $ grid_arg $ cpn_arg $ htile_arg $ wg_arg
          $ iterations_arg $ Obs_ctx.term)

(* --- report --- *)

let report app_name grid cores cpn htile wg iterations trace_csv ctx =
  let app = make_app app_name grid ~htile ~wg ~iterations in
  let pg = Wgrid.Proc_grid.of_cores cores in
  let cmp = Wgrid.Cmp.of_cores_per_node cpn in
  let machine = Xtsim.Machine.v ~cmp Loggp.Params.xt4 pg in
  let est = Xtsim.Wavefront_sim.estimated_events machine app ~iterations:1 in
  Fmt.pr "simulating %s on %a (~%d events)...@." app.App_params.name
    Xtsim.Machine.pp machine est;
  let trace = Xtsim.Trace.create () in
  let o = Xtsim.Wavefront_sim.run ~trace machine app in
  Fmt.pr "%a@.@." Xtsim.Wavefront_sim.pp_outcome o;
  Fmt.pr "%a@.@." Xtsim.Report.pp (Xtsim.Report.of_outcome machine o);
  Fmt.pr "message mix:@.";
  List.iter
    (fun (proto, n) -> Fmt.pr "  %-10s %d@." proto n)
    (Xtsim.Trace.by_protocol trace);
  Option.iter
    (fun path ->
      write_file "trace" path
        ~note:
          (Fmt.str " (%d of %d messages)" (Xtsim.Trace.recorded trace)
             (Xtsim.Trace.total trace))
        (fun w -> w (Xtsim.Trace.to_csv trace)))
    trace_csv;
  Obs_ctx.finish ~engine:"event"
    ~config:
      (Fmt.str "%s|%a|p%d|c%d" app.App_params.name Wgrid.Data_grid.pp
         app.grid cores cpn)
    ~kv:[ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed) ]
    ctx "report"

let report_cmd =
  let doc = "Simulate a run and report utilization and message mix" in
  let trace_csv =
    Arg.(value & opt (some string) None
         & info [ "trace-csv" ] ~docv:"FILE"
             ~doc:"Write the message trace as CSV.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const report $ app_arg $ grid_arg $ cores_arg $ cpn_arg $ htile_arg
          $ wg_arg $ iterations_arg $ trace_csv $ Obs_ctx.term)

(* --- profile --- *)

let profile spec app_name grid cores cpn htile wg iterations platform real
    capacity trace_out ctx =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let cfg = make_cfg platform ~cores ~cpn in
  Fmt.pr "profiling %s on %d cores (%d/node, %s)...@." app.App_params.name
    cores cpn platform.Loggp.Params.name;
  let p = Harness.Profile.run ~real ?capacity cfg app in
  Fmt.pr "%a@." Harness.Profile.pp p;
  Option.iter
    (fun path ->
      let dropped = p.sim_dropped + p.real_dropped in
      write_file "trace" path
        ~note:
          (" (load in Perfetto / chrome://tracing)"
          ^ if dropped > 0 then Fmt.str "; %d spans dropped" dropped else "")
        (fun w -> w (Harness.Profile.trace_json p)))
    trace_out;
  Obs_ctx.finish ~metrics:p.metrics ~engine:"event" ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s|real%b" app.App_params.name
         Wgrid.Data_grid.pp app.grid cores cpn platform.Loggp.Params.name
         real)
    ~kv:
      [ ("sim_per_iteration", p.sim.per_iteration);
        ("sim_elapsed", p.sim.elapsed) ]
    ctx "profile"

let profile_cmd =
  let doc =
    "Profile one configuration: model vs simulated (vs real) breakdown, \
     message mix, critical path, Chrome trace"
  in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:
               "Also execute the transport kernel on one OCaml domain per \
                rank (use small core counts).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON of the run.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ real
          $ capacity_arg $ trace_out $ Obs_ctx.term)

(* --- perturb --- *)

let perturb spec app_name grid cores cpn htile wg iterations platform engine
    no_bus pspec real capacity ctx =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let pspec = resolve_perturb ~ranks:cores spec pspec in
  let cfg = make_cfg platform ~cores ~cpn in
  Fmt.pr "perturbing %s on %d cores (%d/node, %s) with [%a]...@."
    app.App_params.name cores cpn platform.Loggp.Params.name Perturb.Spec.pp
    pspec;
  if Perturb.Spec.is_zero pspec then
    Fmt.pr "(zero spec: control run, expect no deltas)@.";
  let r =
    or_rank_ceiling (fun () ->
        Harness.Perturb_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity cfg app pspec)
  in
  Fmt.pr "%a@." Harness.Perturb_report.pp r;
  (* 0 clean, 3 degraded, 4 unrecovered failure — see
     Perturb_report.exit_status. *)
  let status = Harness.Perturb_report.exit_status r in
  Obs_ctx.finish
    ~engine:(Obs_ctx.engine_name engine)
    ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s|%a" app.App_params.name Wgrid.Data_grid.pp
         app.grid cores cpn platform.Loggp.Params.name Perturb.Spec.pp pspec)
    ~kv:
      [ ("per_iteration", r.sim.per_iteration);
        ("base_per_iteration", r.sim_base.per_iteration);
        ("exit_status", float_of_int status) ]
    ctx "perturb";
  match status with 0 -> () | s -> exit s

let perturb_cmd =
  let doc =
    "Evaluate one perturbation spec on every substrate: noise-adjusted \
     model estimate vs perturbed simulation (vs real), dataflow \
     completion under adversarial straggler ordering, and where the \
     injected delay was absorbed"
  in
  let pspec =
    Arg.(value & opt (some string) None
         & info [ "perturb" ] ~docv:"SPEC"
             ~doc:
               "Perturbation clauses, e.g. 'seed=42 noise=uniform:0.2 \
                straggler=3:50 fail=1:10'; overrides the spec file's \
                perturb stanza.")
  in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:
               "Also execute the transport kernel, unperturbed then \
                perturbed (resilient), on one OCaml domain per rank (use \
                small core counts).")
  in
  Cmd.v (Cmd.info "perturb" ~doc)
    Term.(const perturb $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ engine_arg
          $ no_bus_arg $ pspec $ real $ capacity_arg $ Obs_ctx.term)

(* --- recover --- *)

let recover spec app_name grid cores cpn htile wg iterations platform engine
    no_bus pspec interval ckpt_cost restart_cost tolerance real
    fail_on_mismatch capacity out ctx =
  (match interval with
  | Some k when k < 0 -> usage_error "--interval must be >= 0"
  | _ -> ());
  if ckpt_cost < 0.0 || restart_cost < 0.0 then
    usage_error "checkpoint and restart costs must be >= 0";
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let pspec = resolve_perturb ~ranks:cores spec pspec in
  let cfg = make_cfg platform ~cores ~cpn in
  (* --interval omitted: take the Daly-style optimum for this run. *)
  let interval =
    match interval with
    | Some k -> k
    | None ->
        let r = Plugplay.iteration app cfg in
        let waves =
          Sweeps.Schedule.nsweeps app.schedule
          * Wgrid.Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile
        in
        Perturb.Recover.optimal_interval ~waves ~wave_cost:(r.w +. r.w_pre)
          ~failures:(List.length pspec.failures) ~ckpt_cost
  in
  let policy = Perturb.Recover.v ~ckpt_cost ~restart_cost interval in
  Fmt.pr "recovering %s on %d cores (%d/node, %s) with [%a] under %a...@."
    app.App_params.name cores cpn platform.Loggp.Params.name Perturb.Spec.pp
    pspec Perturb.Recover.pp policy;
  let r =
    or_rank_ceiling (fun () ->
        Harness.Recover_report.run ~real ~model_bus:(not no_bus) ~engine
          ?tolerance ?capacity ~policy cfg app pspec)
  in
  Fmt.pr "%a@." Harness.Recover_report.pp r;
  Option.iter
    (fun p ->
      write_file "report" p (fun w ->
          w (Fmt.str "%a@." Harness.Recover_report.pp r)))
    out;
  (* 0 clean, 3 degraded, 4 unrecovered — see Recover_report.exit_status.
     Without --fail-on-mismatch a model-vs-simulated tolerance miss (or a
     real-run grid mismatch) is reported but tolerated. *)
  let status =
    let s = Harness.Recover_report.exit_status r in
    if
      s = 3 && (not fail_on_mismatch)
      && r.dataflow.mismatches = []
      && r.dataflow.orphaned = 0
    then 0
    else s
  in
  Obs_ctx.finish
    ~engine:(Obs_ctx.engine_name engine)
    ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s|%a|%a" app.App_params.name
         Wgrid.Data_grid.pp app.grid cores cpn platform.Loggp.Params.name
         Perturb.Spec.pp pspec Perturb.Recover.pp policy)
    ~kv:
      [ ("predicted_overhead", r.predicted.total);
        ("simulated_overhead", r.simulated.total);
        ("within_tolerance", bool01 r.within_tolerance);
        ("exit_status", float_of_int status) ]
    ctx "recover";
  if status <> 0 then exit status

let recover_cmd =
  let doc =
    "Evaluate a failure spec under checkpoint/rollback recovery on every \
     substrate: closed-form overhead term vs simulated recovery cost (vs \
     the real runtime restoring a killed rank from its snapshot), plus \
     the Daly-style optimal checkpoint interval"
  in
  let pspec =
    Arg.(value & opt (some string) None
         & info [ "perturb" ] ~docv:"SPEC"
             ~doc:
               "Perturbation clauses, e.g. 'seed=42 fail=1:10'; overrides \
                the spec file's perturb stanza.")
  in
  let interval =
    Arg.(value & opt (some int) None
         & info [ "interval" ] ~docv:"K"
             ~doc:
               "Checkpoint every K waves (0 disables recovery; default: \
                the Daly-style optimum for this run).")
  in
  let ckpt_cost =
    Arg.(value & opt float 50.0
         & info [ "ckpt-cost" ] ~docv:"US"
             ~doc:"Modelled cost of taking one checkpoint (us).")
  in
  let restart_cost =
    Arg.(value & opt float 500.0
         & info [ "restart-cost" ] ~docv:"US"
             ~doc:"Modelled cost of respawning a rank from a snapshot (us).")
  in
  let tolerance =
    Arg.(value & opt (some float) None
         & info [ "tolerance" ] ~docv:"FRAC"
             ~doc:
               "Accepted relative gap between simulated and closed-form \
                overhead (default 0.05).")
  in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:
               "Also execute the transport kernel under genuine \
                checkpoint/rollback, one OCaml domain per rank (use small \
                core counts).")
  in
  let fail_on_mismatch =
    Arg.(value & flag
         & info [ "fail-on-mismatch" ]
             ~doc:
               "Exit 3 when the simulated overhead misses the closed form \
                beyond --tolerance (or a recovered real run's grid differs \
                from the reference).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report to FILE.")
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const recover $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ engine_arg
          $ no_bus_arg $ pspec $ interval $ ckpt_cost $ restart_cost
          $ tolerance $ real $ fail_on_mismatch $ capacity_arg $ out
          $ Obs_ctx.term)

(* --- timeline --- *)

let timeline spec app_name grid cores cpn htile wg iterations platform engine
    real no_bus metric capacity json_out csv_out ctx =
  let metric =
    match Obs.Timeline.metric_of_string metric with
    | Some m -> m
    | None ->
        usage_error
          "unknown --metric %S (compute, send, recv, wait, idle, busy, \
           total)"
          metric
  in
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  let cfg = make_cfg platform ~cores ~cpn in
  Fmt.pr "timeline of %s on %d cores (%d/node, %s)...@." app.App_params.name
    cores cpn platform.Loggp.Params.name;
  let t =
    or_rank_ceiling (fun () ->
        Harness.Timeline_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity cfg app)
  in
  Fmt.pr "%a@." (Harness.Timeline_report.pp ~metric) t;
  Option.iter
    (fun p ->
      write_file "timeline JSON" p (fun w ->
          w (Harness.Timeline_report.to_json t)))
    json_out;
  Option.iter
    (fun p ->
      write_file "timeline CSV" p (fun w -> w (Harness.Timeline_report.to_csv t)))
    csv_out;
  Obs_ctx.finish
    ~engine:(Obs_ctx.engine_name engine)
    ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s|bus%b" app.App_params.name
         Wgrid.Data_grid.pp app.grid cores cpn platform.Loggp.Params.name
         (not no_bus))
    ~kv:
      [ ("t_iteration", t.t_iteration); ("elapsed", t.sim.elapsed);
        ("gap", t.divergence.gap) ]
    ctx "timeline"

let timeline_cmd =
  let doc =
    "Reconstruct per-rank x per-wave timelines (simulated, the analytic \
     term schedule on the batched engine, optionally real), render them \
     as heatmaps, and attribute the model's error wave by wave"
  in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:
               "Also execute the transport kernel on one OCaml domain per \
                rank and reconstruct its timeline (use small core counts).")
  in
  let no_bus =
    Arg.(value & flag
         & info [ "no-bus" ]
             ~doc:
               "Switch off the simulator's shared-bus contention; with \
                single-core nodes the observed and model timelines then \
                coincide.")
  in
  let metric =
    Arg.(value & opt string "wait"
         & info [ "metric" ] ~docv:"M"
             ~doc:
               "Heatmap metric: compute, send, recv, wait, idle, busy or \
                total.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the wavefront-timeline-report/v1 JSON document.")
  in
  let csv_out =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the per-cell decompositions as CSV.")
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const timeline $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ engine_arg
          $ real $ no_bus $ metric $ capacity_arg $ json_out $ csv_out
          $ Obs_ctx.term)

(* --- idlewave --- *)

let idlewave spec app_name grid cores cpn htile wg iterations platform engine
    pgrid pspec real no_bus fail_on_mismatch capacity out json_out csv_out ctx
    =
  let app = make_app ?spec app_name grid ~htile ~wg ~iterations in
  (* --pgrid overrides the near-square factorization of -p: idle-wave
     studies are pipeline studies, and a COLSx1 chain is where the
     analytic model is exact. *)
  let cfg, cores =
    match pgrid with
    | None -> (make_cfg platform ~cores ~cpn, cores)
    | Some s -> (
        match String.split_on_char 'x' s |> List.map int_of_string_opt with
        | [ Some c; Some r ] when c >= 1 && r >= 1 ->
            let platform = Loggp.Params.with_cores_per_node platform cpn in
            ( Plugplay.config ~cmp:(Wgrid.Cmp.of_cores_per_node cpn)
                ~pgrid:(Wgrid.Proc_grid.v ~cols:c ~rows:r)
                platform ~cores:(c * r),
              c * r )
        | _ -> usage_error "--pgrid expects COLSxROWS, e.g. 16x1")
  in
  let pspec = resolve_perturb ~ranks:cores spec pspec in
  Fmt.pr "idle-wave study of %s on %d cores (%d/node, %s) with [%a]...@."
    app.App_params.name cores cpn platform.Loggp.Params.name Perturb.Spec.pp
    pspec;
  if pspec.pulses = [] then
    Fmt.pr "(no pulse clause: expect no idle wave; try --perturb \
            'pulse=RANK:WAVE:DELAY_US')@.";
  let r =
    or_rank_ceiling (fun () ->
        Harness.Idlewave_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity cfg app pspec)
  in
  Fmt.pr "%a@." Harness.Idlewave_report.pp r;
  Option.iter
    (fun p ->
      write_file "report" p (fun w ->
          w (Fmt.str "%a@." Harness.Idlewave_report.pp r)))
    out;
  Option.iter
    (fun p ->
      write_file "idle-wave JSON" p (fun w ->
          w (Harness.Idlewave_report.to_json r)))
    json_out;
  Option.iter
    (fun p ->
      write_file "idle-wave CSV" p (fun w ->
          w (Harness.Idlewave_report.to_csv r)))
    csv_out;
  (* 0 clean, 3 when a spec'd pulse went undetected or (with
     --fail-on-mismatch) the substrates disagree — see
     Idlewave_report.exit_status. *)
  let status = Harness.Idlewave_report.exit_status ~fail_on_mismatch r in
  Obs_ctx.finish
    ~engine:(Obs_ctx.engine_name engine)
    ?spec
    ~config:
      (Fmt.str "%s|%a|p%d|c%d|%s|%a" app.App_params.name Wgrid.Data_grid.pp
         app.grid cores cpn platform.Loggp.Params.name Perturb.Spec.pp pspec)
    ~kv:
      [ ("fronts", float_of_int (List.length r.sim.fronts));
        ("identity", bool01 r.identity);
        ("exit_status", float_of_int status) ]
    ctx "idlewave";
  match status with 0 -> () | s -> exit s

let idlewave_cmd =
  let doc =
    "Inject an idle-wave source and measure the wave: differential front \
     detection on control/perturbed run pairs, propagation speed and \
     decay fits, reconciled against the closed-form idle-wave model on \
     the simulator, the batched engine and (with --real) the kernel"
  in
  let pgrid =
    Arg.(value & opt (some string) None
         & info [ "pgrid" ] ~docv:"CxR"
             ~doc:
               "Processor grid shape COLSxROWS, overriding the near-square \
                factorization of -p (e.g. 16x1 for the 1-D chain where the \
                analytic idle-wave model is exact).")
  in
  let pspec =
    Arg.(value & opt (some string) None
         & info [ "perturb" ] ~docv:"SPEC"
             ~doc:
               "Perturbation clauses; the idle-wave sources are \
                'pulse=RANK:WAVE:DELAY_US' (repeatable), \
                'periodic=PERIOD_WAVES:AMPLITUDE_US' and 'collnoise=US', \
                composable with the noise/straggler/link clauses. \
                Overrides the spec file's perturb stanza.")
  in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:
               "Also execute the transport kernel pair on one OCaml domain \
                per rank and run the detector on its timelines (use small \
                core counts).")
  in
  let no_bus =
    Arg.(value & flag
         & info [ "no-bus" ]
             ~doc:
               "Switch off the simulator's shared-bus contention; with \
                single-core nodes the simulated and batched timelines \
                then coincide cell for cell.")
  in
  let fail_on_mismatch =
    Arg.(value & flag
         & info [ "fail-on-mismatch" ]
             ~doc:
               "Exit 3 when the sim/batched timelines diverge or the \
                fitted hop latency misses the analytic one beyond 5%.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report to FILE.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the wavefront-idlewave/v2 JSON document.")
  in
  let csv_out =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the reconciliation table as CSV.")
  in
  Cmd.v (Cmd.info "idlewave" ~doc)
    Term.(const idlewave $ spec_arg $ app_arg $ grid_arg $ cores_arg $ cpn_arg
          $ htile_arg $ wg_arg $ iterations_arg $ platform_arg $ engine_arg
          $ pgrid $ pspec $ real $ no_bus $ fail_on_mismatch $ capacity_arg
          $ out $ json_out $ csv_out $ Obs_ctx.term)

(* --- bench --- *)

let bench quick out against fail_on_regression label repeats min_delta ctx =
  (match repeats with
  | Some n when n < 3 -> usage_error "--repeats must be at least 3"
  | _ -> ());
  (* Opened now, so an unwritable --out fails before the suite runs. *)
  let save = Option.map (write_file "report") out in
  let cases = Harness.Bench_suite.cases ~quick () in
  Fmt.pr "running %d benchmark case(s)%s...@." (List.length cases)
    (if quick then " (quick subset)" else "");
  let results =
    List.map
      (fun (c : Harness.Bench_suite.case) ->
        (* --repeats wins; else the case's own count (the multi-second
           scale cases run few repetitions). *)
        let repeats =
          match repeats with Some _ -> repeats | None -> c.repeats
        in
        let s = Bench_stats.Runner.measure ?repeats ~name:c.name c.f in
        Fmt.pr "  %a@." Bench_stats.Runner.pp s;
        s)
      cases
  in
  let meta =
    [
      ("peak_rss_mb", string_of_int (Obs.Runtime.peak_rss_mb ()));
      ("scale_domains", string_of_int Harness.Bench_suite.scale_domains);
      ("git", Obs.Ledger.git_describe ());
      ("host", Unix.gethostname ());
    ]
  in
  let report = Bench_stats.Report.v ~label ~meta results in
  (match save with
  | None -> ()
  | Some save ->
      save
        ~note:(Fmt.str " (schema %s)" Bench_stats.Report.schema)
        (fun w -> w (Bench_stats.Report.to_json report ^ "\n")));
  let regressed =
    match against with
    | None -> false
    | Some path ->
        let baseline =
          try Bench_stats.Report.read path
          with
          | Sys_error m -> usage_error "cannot read baseline: %s" m
          | Obs.Json.Parse_error m ->
              usage_error "bad baseline %s: %s" path m
        in
        let cmp =
          Bench_stats.Compare.compare ?min_delta_pct:min_delta ~baseline
            ~current:report ()
        in
        Fmt.pr "@.against %s (%s):@.%a" path baseline.Bench_stats.Report.label
          Bench_stats.Compare.pp cmp;
        Bench_stats.Compare.regressions cmp <> []
  in
  (* Each case's median wall time (us) becomes an outcome number, so the
     run ledger doubles as a coarse longitudinal benchmark record. *)
  Obs_ctx.finish
    ~config:(Fmt.str "quick%b|%s" quick label)
    ~kv:
      (("cases", float_of_int (List.length results))
      :: List.map
           (fun (s : Bench_stats.Runner.summary) -> (s.name, s.median))
           results)
    ctx "bench";
  if fail_on_regression && regressed then exit 1

let bench_cmd =
  let doc =
    "Run the continuous-benchmarking suite with statistical rigor (warmup, \
     repetitions, bootstrap confidence intervals), emit a \
     machine-readable report, and optionally compare against a baseline"
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Run only the fast CI subset of cases.")
  in
  let out =
    Arg.(value & opt (some string) (Some "BENCH_wavefront.json")
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the wavefront-bench/v1 JSON report (default \
                   BENCH_wavefront.json).")
  in
  let against =
    Arg.(value & opt (some file) None
         & info [ "against" ] ~docv:"OLD.json"
             ~doc:
               "Compare against a previous report; regressions are cases \
                whose confidence intervals are disjoint from the \
                baseline's and whose median moved beyond the noise \
                threshold.")
  in
  let fail_on_regression =
    Arg.(value & flag
         & info [ "fail-on-regression" ]
             ~doc:
               "Exit 1 when --against finds regressions (default: report \
                and exit 0, the soft CI gate).")
  in
  let label =
    Arg.(value & opt string "local"
         & info [ "label" ] ~docv:"LABEL"
             ~doc:"Label recorded in the report, e.g. a git ref.")
  in
  let repeats =
    Arg.(value & opt (some int) None
         & info [ "repeats" ] ~docv:"N"
             ~doc:"Timed repetitions per case (default 20).")
  in
  let min_delta =
    Arg.(value & opt (some float) None
         & info [ "min-delta-pct" ] ~docv:"PCT"
             ~doc:"Noise threshold for --against (default 5%).")
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const bench $ quick $ out $ against $ fail_on_regression $ label
          $ repeats $ min_delta $ Obs_ctx.term)

(* --- fit --- *)

(* Both transports expose the one MICROBENCH signature, so the simulated
   and the real curve reach Loggp.Fit through literally the same calls. *)
let fit real ctx =
  (if real then begin
     let (module M : Wrun.Substrate.MICROBENCH) =
       Shmpi.Pingpong.microbench ()
     in
     let curve =
       M.curve ~rounds:100 ~sizes:[ 64; 256; 1024; 4096; 16384; 65536 ] ()
     in
     let p = Shmpi.Pingpong.fit_platform curve in
     Fmt.pr "measured %s:@." M.name;
     List.iter (fun (s, t) -> Fmt.pr "  %6d B: %8.3f us@." s t) curve;
     Fmt.pr "fitted: %a@." Loggp.Params.pp p
   end
   else begin
     let sizes = Xtsim.Pingpong.figure3_sizes in
     let (module Off : Wrun.Substrate.MICROBENCH) =
       Xtsim.Pingpong.microbench Loggp.Params.xt4 Off_node
     in
     let (module On : Wrun.Substrate.MICROBENCH) =
       Xtsim.Pingpong.microbench Loggp.Params.xt4 On_chip
     in
     let off, _ = Loggp.Fit.fit_offnode (Off.curve ~sizes ()) in
     let on, _ = Loggp.Fit.fit_onchip (On.curve ~sizes ()) in
     Fmt.pr "fitted from the simulated XT4 microbenchmark:@.";
     Fmt.pr "  off-node: %a@." Loggp.Params.pp_offnode off;
     Fmt.pr "  on-chip:  %a@." Loggp.Params.pp_onchip on
   end);
  Obs_ctx.finish ~config:(Fmt.str "real%b" real) ctx "fit"

let fit_cmd =
  let doc = "Fit LogGP parameters from a ping-pong microbenchmark" in
  let real =
    Arg.(value & flag
         & info [ "real" ]
             ~doc:"Measure this machine's shared-memory transport instead \
                   of the simulated XT4.")
  in
  Cmd.v (Cmd.info "fit" ~doc) Term.(const fit $ real $ Obs_ctx.term)

(* --- measure-wg --- *)

let measure ctx =
  let wg6 = Kernels.Measure.transport_wg () in
  let wg10 =
    Kernels.Measure.transport_wg ~config:(Kernels.Transport.v ~angles:10 ()) ()
  in
  let lu = Kernels.Measure.lu_wg () in
  let lu_pre = Kernels.Measure.lu_wg_pre () in
  Fmt.pr
    "@[<v>measured on this machine (us/cell):@,\
     transport, 6 angles (Sweep3D-like):  %.4f@,\
     transport, 10 angles (Chimaera-like): %.4f@,\
     LU sweep kernel:                      %.4f@,\
     LU pre-computation:                   %.4f@]@."
    wg6 wg10 lu lu_pre;
  Obs_ctx.finish
    ~kv:
      [ ("transport_wg6", wg6); ("transport_wg10", wg10); ("lu_wg", lu);
        ("lu_wg_pre", lu_pre) ]
    ctx "measure-wg"

let measure_cmd =
  let doc = "Measure per-cell kernel times (the model's Wg inputs) for real" in
  Cmd.v (Cmd.info "measure-wg" ~doc) Term.(const measure $ Obs_ctx.term)

(* --- telemetry --- *)

(* The allocation gate: minor-heap words per evaluation of the serving
   path's units of work, judged against pinned budgets. The predictor's
   closed-form evaluator and the batched engine's steady-state step are
   contractually allocation-free (budget 0, pinned exactly); the full
   batched run and the daemon's predict path carry nonzero ratchets with
   headroom, so a change that starts boxing in either hot loop, or puts
   per-core work back on the predict path, trips --assert-zero-alloc in
   CI. *)

type alloc_target = {
  tname : string;
  tdoc : string;
  budget : float;  (** minor words per iteration, inclusive ceiling *)
  titerations : int;
  prepare : cores:int -> unit -> unit;
      (** builds all state (evaluator, probe, cost tables) outside the
          measured window and returns the unit of work *)
}

(* Measured at ~710k minor words per 256-rank sweep3d run (the outcome
   record, the per-rank flat arrays, the scheduler's diagonal lists —
   setup, not the tile loop); the ratchet pins 1M so only a real
   regression trips it — per-tile boxing on this grid would add tens of
   millions of words, setup jitter a few thousand. *)
let batched_run_budget = 1_000_000.0

let alloc_targets =
  [
    {
      tname = "predictor";
      tdoc = "Plugplay.Eval.run: the closed-form (r1)-(r5) evaluation";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let cfg = make_cfg Loggp.Params.xt4 ~cores ~cpn:2 in
          let e = Plugplay.Eval.create app cfg in
          fun () -> Plugplay.Eval.run e);
    };
    {
      tname = "batched-step";
      tdoc = "Batched.Steady.step: one steady-state per-tile op sequence";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let pg = Wgrid.Proc_grid.of_cores cores in
          let costs =
            Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
              Loggp.Params.xt4 pg app
          in
          let p = Wrun.Batched.Steady.probe ~costs pg app in
          fun () -> Wrun.Batched.Steady.step p);
    };
    {
      tname = "batched-run";
      tdoc = "Batched.run, 256 ranks end to end (ratchet, not zero)";
      budget = batched_run_budget;
      titerations = 25;
      prepare =
        (fun ~cores:_ ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let pg = Wgrid.Proc_grid.of_cores 256 in
          let costs =
            Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
              Loggp.Params.xt4 pg app
          in
          fun () -> ignore (Wrun.Batched.run ~costs pg app));
    };
    {
      tname = "serve-predict";
      tdoc =
        "Api.predict_into: the daemon's parse -> Eval.create/run -> \
         serialize hot path (ratchet, not zero: JSON parse, the O(cols + \
         rows) tables and the response render allocate a bounded amount)";
      (* Measured at 3,256 minor words per request on this body at the
         default 4096-core (64x64) grid: the JSON parse, the response
         render and Eval.create's four O(cols + rows) (r2b) tables plus
         its one-row StartP buffer. The ratchet pins 16k: a return to the
         per-cell path (a locality probe and boxed floats in every cell,
         ~51 words per core) measures 211k here and trips it. *)
      budget = 16_384.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let body =
            Printf.sprintf
              {|{"app":{"name":"sweep3d","nx":256,"ny":256,"nz":256},"machine":{"platform":"xt4","cores":%d,"cores_per_node":2}}|}
              cores
          in
          let buf = Buffer.create 4096 in
          fun () ->
            match Serve.Api.predict_into buf body with
            | Ok () -> ()
            | Error m -> Fmt.failwith "serve-predict: %s" m);
    };
    {
      tname = "control-alloc";
      tdoc = "a deliberately allocating closure (the gate's negative control)";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores:_ () -> ignore (Sys.opaque_identity (ref (Sys.opaque_identity 0))));
    };
  ]

let telemetry targets cores assert_zero ctx =
  if cores < 9 then
    usage_error
      "--cores must be at least 9 (the steady-state probe needs a 3x3 \
       processor grid)";
  (* Default set: every budgeted target. The negative control only
     runs when asked for — its whole point is to exit nonzero. *)
  let selected =
    match targets with
    | [] ->
        List.filter (fun t -> t.tname <> "control-alloc") alloc_targets
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun t -> t.tname = n) alloc_targets with
            | Some t -> t
            | None ->
                usage_error "unknown --target %s (have: %s)" n
                  (String.concat ", "
                     (List.map (fun t -> t.tname) alloc_targets)))
          names
  in
  Fmt.pr "allocation gate: %d target(s), %d-core batched grid@."
    (List.length selected) cores;
  let phases = Obs.Runtime.phases () in
  let rows =
    List.map
      (fun t ->
        Obs.Runtime.phase phases t.tname @@ fun () ->
        let f =
          try t.prepare ~cores
          with Invalid_argument m -> usage_error "%s: %s" t.tname m
        in
        (t, Obs.Runtime.measure_alloc ~iterations:t.titerations f))
      selected
  in
  let breaches =
    List.filter
      (fun (t, (a : Obs.Runtime.alloc)) -> a.minor_words_per_iter > t.budget)
      rows
  in
  List.iter
    (fun (t, (a : Obs.Runtime.alloc)) ->
      let ok = a.minor_words_per_iter <= t.budget in
      Fmt.pr "@[<v>%-13s %s@,%-13s %a@,%-13s budget %g words/iter: %s@]@."
        t.tname t.tdoc "" Obs.Runtime.pp_alloc a "" t.budget
        (if ok then "within budget" else "EXCEEDED"))
    rows;
  Fmt.pr "runtime:@.%a@." Obs.Runtime.pp_report (Obs.Runtime.report phases);
  let status = if breaches <> [] && assert_zero then 1 else 0 in
  if breaches <> [] then
    Fmt.pr "%d target(s) over budget%s@." (List.length breaches)
      (if assert_zero then " (failing: --assert-zero-alloc)"
       else " (reported only; gate with --assert-zero-alloc)");
  Obs_ctx.finish
    ~config:
      (Fmt.str "%s|p%d"
         (String.concat "," (List.map (fun (t, _) -> t.tname) rows))
         cores)
    ~kv:
      (("exit_status", float_of_int status)
      :: List.map
           (fun (t, (a : Obs.Runtime.alloc)) ->
             (t.tname ^ ".minor_words_per_iter", a.minor_words_per_iter))
           rows)
    ctx "telemetry";
  if status <> 0 then exit status

let telemetry_cmd =
  let doc =
    "Measure minor-heap allocation per evaluation of the serving-path \
     units (the closed-form predictor, the batched engine's steady-state \
     step, a full batched run) and gate them against pinned budgets"
  in
  let targets =
    Arg.(value
         & opt_all
             (enum (List.map (fun t -> (t.tname, t.tname)) alloc_targets))
             []
         & info [ "target" ] ~docv:"T"
             ~doc:
               "Target to measure (repeatable): predictor, batched-step, \
                batched-run, serve-predict or control-alloc. Default: the \
                four budgeted targets (predictor and batched-step pinned \
                at 0, batched-run and serve-predict ratchets); \
                control-alloc is a deliberately allocating closure that \
                proves the gate can fail.")
  in
  let cores =
    Arg.(value & opt int 4096
         & info [ "p"; "cores" ] ~docv:"P"
             ~doc:
               "Core count of the model configuration and the batched \
                steady-state grid (at least 9).")
  in
  let assert_zero =
    Arg.(value & flag
         & info [ "assert-zero-alloc" ]
             ~doc:
               "Exit 1 when any measured target exceeds its allocation \
                budget (the CI gate; default reports without failing).")
  in
  Cmd.v (Cmd.info "telemetry" ~doc)
    Term.(const telemetry $ targets $ cores $ assert_zero $ Obs_ctx.term)

(* --- runs --- *)

(* Reading the ledger other runs append to. Neither subcommand writes:
   listing or diffing the record must not grow it. *)

let runs_ledger_arg =
  Arg.(value & opt (some string) None
       & info [ "ledger" ] ~docv:"FILE"
           ~doc:
             (Fmt.str "Run-ledger file to read (default %s)."
                Obs.Ledger.default_path))

let load_ledger path =
  match Obs.Ledger.load ?path () with
  | Error m -> usage_error "%s" m
  | Ok (records, skipped) ->
      if skipped > 0 then
        Fmt.epr "wavefront: ledger: skipped %d malformed line(s)@." skipped;
      records

let runs_list ledger last =
  let records = load_ledger ledger in
  let total = List.length records in
  if total = 0 then
    Fmt.pr "ledger %s is empty@."
      (Option.value ledger ~default:Obs.Ledger.default_path)
  else begin
    let first_shown = if last <= 0 then 0 else max 0 (total - last) in
    Fmt.pr "%4s  %-19s %-10s %-7s %-12s %9s  %s@." "#" "when" "subcommand"
      "engine" "config" "duration" "git";
    List.iteri
      (fun i (r : Obs.Ledger.t) ->
        if i >= first_shown then
          let tm = Unix.localtime r.timestamp in
          Fmt.pr "%4d  %04d-%02d-%02d %02d:%02d:%02d %-10s %-7s %-12s %8.2fs  %s@."
            i (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec r.subcommand
            (if r.engine = "" then "-" else r.engine)
            (if r.config_hash = "" then "-" else r.config_hash)
            r.duration_s
            (if r.git = "" then "-" else r.git))
      records;
    if first_shown > 0 then
      Fmt.pr "(%d earlier record(s) elided; -n 0 shows all)@." first_shown
  end

let runs_list_cmd =
  let doc = "List the recorded invocations, oldest first" in
  let last =
    Arg.(value & opt int 20
         & info [ "n"; "last" ] ~docv:"N"
             ~doc:"Show only the last N records (0 = all; default 20).")
  in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(const runs_list $ runs_ledger_arg $ last)

let runs_compare ledger a b min_delta fail_on_regression =
  let records = load_ledger ledger in
  let total = List.length records in
  let resolve label i =
    let j = if i < 0 then total + i else i in
    if j < 0 || j >= total then
      usage_error
        "%s index %d out of range (ledger has %d record(s); negative \
         indices count from the end)"
        label i total;
    List.nth records j
  in
  let base = resolve "BASE" a and current = resolve "CURRENT" b in
  if
    base.Obs.Ledger.subcommand <> current.Obs.Ledger.subcommand
    || (base.config_hash <> "" && current.config_hash <> ""
        && base.config_hash <> current.config_hash)
  then
    Fmt.pr
      "note: comparing %s/%s against %s/%s — different work, deltas are \
       apples to oranges@."
      base.subcommand base.config_hash current.subcommand
      current.config_hash;
  let diffs = Obs.Ledger.compare_runs ?min_delta_pct:min_delta base current in
  List.iter (fun d -> Fmt.pr "%a@." Obs.Ledger.pp_diff d) diffs;
  let regressed = Obs.Ledger.regressions diffs in
  if regressed = [] then Fmt.pr "no regressions@."
  else begin
    Fmt.pr "%d regression(s)@." (List.length regressed);
    if fail_on_regression then exit 1
  end

let runs_compare_cmd =
  let doc =
    "Diff two ledger records metric by metric and flag regressions \
     beyond the noise threshold"
  in
  let base =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"BASE"
             ~doc:"Baseline record index (negative counts from the end).")
  in
  let current =
    Arg.(required & pos 1 (some int) None
         & info [] ~docv:"CURRENT"
             ~doc:"Current record index (negative counts from the end).")
  in
  let min_delta =
    Arg.(value & opt (some float) None
         & info [ "min-delta-pct" ] ~docv:"PCT"
             ~doc:"Noise threshold; moves under it are Unchanged \
                   (default 5%).")
  in
  let fail_on_regression =
    Arg.(value & flag
         & info [ "fail-on-regression" ]
             ~doc:
               "Exit 1 when any metric regressed (default: report and \
                exit 0, the soft CI gate).")
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const runs_compare $ runs_ledger_arg $ base $ current $ min_delta
          $ fail_on_regression)

let runs_cmd =
  let doc =
    "Inspect the run ledger: list recorded invocations, diff two of them"
  in
  Cmd.group (Cmd.info "runs" ~doc) [ runs_list_cmd; runs_compare_cmd ]

(* --- serve / slam --- *)

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or target.")

let port_arg ~default doc =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let seed_serve_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed for the chaos/request streams.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")

let serve_main host port workers queue max_body header_timeout_ms deadline_ms
    chaos_burst chaos_fail chaos_slow chaos_slow_ms breaker_window
    breaker_min_calls breaker_threshold breaker_cooldown seed quiet =
  let chaos =
    Serve.Chaos.v ~fail_burst:chaos_burst ~fail_rate:chaos_fail
      ~slow_rate:chaos_slow ~slow_ms:chaos_slow_ms ()
  in
  let cfg =
    {
      Serve.Server.host;
      port;
      workers;
      queue_capacity = queue;
      max_body;
      header_timeout_ms;
      default_deadline_ms = deadline_ms;
      chaos;
      seed;
      breaker_window;
      breaker_min_calls;
      breaker_threshold;
      breaker_cooldown_s = breaker_cooldown;
      quiet;
    }
  in
  exit (Serve.Server.run cfg)

let serve_cmd =
  let doc =
    "Serve the plug-and-play model over HTTP: predictions, design-space \
     sweeps, health and metrics, with load shedding, deadlines, a \
     validation circuit breaker and graceful drain"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Endpoints: GET /healthz, GET /readyz (503 while draining), GET \
         /metrics (OpenMetrics), POST /v1/predict (model evaluation, \
         optionally cross-validated against the batched engine behind a \
         circuit breaker), POST /v1/sweep (bounded (Htile, grid, K) \
         design-space sweep with a Pareto frontier).";
      `P
        "Robustness contracts: connections beyond the admission queue are \
         answered 429 with Retry-After; a request's X-Deadline-Ms header \
         caps its total evaluation time (504 on expiry, checked \
         cooperatively inside sweeps); requests whose headers stall past \
         the header budget get 408; SIGTERM/SIGINT drain the backlog so \
         every admitted connection is answered, then exit 0.";
    ]
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; beyond it connections shed \
                   with 429.")
  in
  let max_body =
    Arg.(value & opt int (1024 * 1024)
         & info [ "max-body" ] ~docv:"BYTES"
             ~doc:"Request body cap; larger advertisements get 413 before \
                   the body is read.")
  in
  let header_timeout =
    Arg.(value & opt float 2000.0
         & info [ "header-timeout-ms" ] ~docv:"MS"
             ~doc:"Budget for a request to arrive in full (slow-loris \
                   defense, 408).")
  in
  let deadline =
    Arg.(value & opt float 10_000.0
         & info [ "default-deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline when X-Deadline-Ms is absent.")
  in
  let chaos_burst =
    Arg.(value & opt int 0
         & info [ "chaos-fail-burst" ] ~docv:"N"
             ~doc:"Chaos: fail the first N validation calls (opens the \
                   breaker deterministically, then lets it recover).")
  in
  let chaos_fail =
    Arg.(value & opt float 0.0
         & info [ "chaos-fail-rate" ] ~docv:"P"
             ~doc:"Chaos: steady-state validation failure probability.")
  in
  let chaos_slow =
    Arg.(value & opt float 0.0
         & info [ "chaos-slow-rate" ] ~docv:"P"
             ~doc:"Chaos: probability of stalling a validation call.")
  in
  let chaos_slow_ms =
    Arg.(value & opt float 50.0
         & info [ "chaos-slow-ms" ] ~docv:"MS"
             ~doc:"Chaos: stall duration for --chaos-slow-rate.")
  in
  let breaker_window =
    Arg.(value & opt int 16
         & info [ "breaker-window" ] ~docv:"N"
             ~doc:"Sliding outcome window of the validation breaker.")
  in
  let breaker_min_calls =
    Arg.(value & opt int 4
         & info [ "breaker-min-calls" ] ~docv:"N"
             ~doc:"Outcomes required before the failure rate is judged.")
  in
  let breaker_threshold =
    Arg.(value & opt float 0.5
         & info [ "breaker-threshold" ] ~docv:"F"
             ~doc:"Failure fraction that opens the breaker.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 2.0
         & info [ "breaker-cooldown-s" ] ~docv:"S"
             ~doc:"Open-state cooldown before the half-open probe.")
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const serve_main $ host_arg
          $ port_arg ~default:8080 "Port to bind (0 = ephemeral)."
          $ workers $ queue $ max_body $ header_timeout $ deadline
          $ chaos_burst $ chaos_fail $ chaos_slow $ chaos_slow_ms
          $ breaker_window $ breaker_min_calls $ breaker_threshold
          $ breaker_cooldown $ seed_serve_arg $ quiet_arg)

let slam_main host port requests clients seed client_timeout latency_budget
    expect_breaker fail_on_invariant report quiet =
  let cfg =
    {
      Serve.Slam.host;
      port;
      requests;
      clients;
      seed;
      client_timeout_s = client_timeout;
      latency_budget_ms = latency_budget;
      expect_breaker;
      fail_on_invariant;
      report_path = report;
      quiet;
    }
  in
  exit (Serve.Slam.run cfg)

let slam_cmd =
  let doc =
    "Chaos/soak-test a running serve daemon with a seeded mix of valid, \
     malformed, oversized, slow-loris and deadline-doomed requests, then \
     assert its robustness invariants"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Invariants: the daemon survives; every awaited connection gets a \
         well-formed status line; the daemon's own accounting reconciles \
         (requests = outcomes + in-flight + queued on the final /metrics \
         scrape); malformed/oversized/slow-loris/expired requests get \
         their contracted 400/413/408/504 (shedding 429s excepted); the \
         fast-path p99 stays under the latency budget. With \
         --expect-breaker, the validation breaker must have opened and \
         recovered. Exit 0 on success, 1 when an invariant failed under \
         --fail-on-invariant, 2 when the daemon is unreachable.";
    ]
  in
  let requests =
    Arg.(value & opt int 1000
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let client_timeout =
    Arg.(value & opt float 10.0
         & info [ "client-timeout-s" ] ~docv:"S"
             ~doc:"Per-connection give-up budget (a hang past it is an \
                   invariant breach).")
  in
  let latency_budget =
    Arg.(value & opt float 2000.0
         & info [ "latency-budget-ms" ] ~docv:"MS"
             ~doc:"Fast-path p99 bound.")
  in
  let expect_breaker =
    Arg.(value & flag
         & info [ "expect-breaker" ]
             ~doc:"Assert the validation breaker opened and recovered \
                   (pair with the daemon's --chaos-fail-burst).")
  in
  let fail_on_invariant =
    Arg.(value & flag
         & info [ "fail-on-invariant" ]
             ~doc:"Exit 1 when any invariant failed (default: report and \
                   exit 0).")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the wavefront-slam/v1 JSON report here.")
  in
  Cmd.v (Cmd.info "slam" ~doc ~man)
    Term.(const slam_main $ host_arg
          $ port_arg ~default:8080 "Daemon port to target."
          $ requests $ clients $ seed_serve_arg $ client_timeout
          $ latency_budget $ expect_breaker $ fail_on_invariant $ report
          $ quiet_arg)

(* --- main --- *)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "wavefront" ~version:"1.0.0"
      ~doc:
        "Plug-and-play LogGP performance model for pipelined wavefront \
         computations (Mudalige, Vernon & Jarvis, IPDPS 2008)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ predict_cmd; explain_cmd; simulate_cmd; validate_cmd; report_cmd;
            profile_cmd; perturb_cmd; recover_cmd; timeline_cmd; idlewave_cmd;
            bench_cmd; figure_cmd; scale_cmd; fit_cmd; measure_cmd;
            telemetry_cmd; runs_cmd; serve_cmd; slam_cmd ]))
