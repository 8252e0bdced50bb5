(* The repository's benchmark of record (see README.md beside this
   file). One run:

     bench.exe --wavefront PATH --workload predict|design|simulate \
       --seed N --seconds S --trace 0|1

   prints a table of every figure, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. [--selftest]
   runs the oracle's negative controls instead. *)

let out_dir = "perfbench/_out"

(* Every per-layer metric, in the order of BENCHMARK.json. A layer the
   workload never calls reports 0. *)
let per_layer_units =
  [
    ("serve.transport_us", "us"); ("serve.in_daemon_us", "us");
    ("api.parse_predict_us", "us"); ("api.parse_sweep_us", "us");
    ("api.serialize_predict_us", "us"); ("api.run_sweep_ms", "ms");
    ("api.render_sweep_ms", "ms");
    ("api.pareto_us", "us"); ("api.sweep_response_kb", "KB");
    ("api.validate_run_ms", "ms");
    ("plugplay.eval_create_us", "us"); ("plugplay.eval_run_us", "us");
    ("plugplay.create_over_run", "ratio"); ("plugplay.create_minor_words", "words");
    ("plugplay.iteration_us_per_point", "us"); ("plugplay.time_per_iteration_ms", "ms");
    ("recover.expected_term_us", "us");
    ("costs.loggp_64_ms", "ms"); ("costs.loggp_65536_ms", "ms");
    ("batched.engine_s", "s"); ("batched.shard_speedup", "ratio");
    ("batched.step_ns", "ns"); ("batched.rank_waves", "count");
    ("batched.residual_s", "s"); ("batched.messages", "count");
    ("timeline_stream.create_ms", "ms"); ("timeline_stream.sink_s", "s");
    ("timeline_stream.sink_2dom_s", "s"); ("timeline_stream.cells", "count");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("sweep.shared_point_frac", "ratio"); ("predict.large_core_frac", "ratio");
    ("requests.predict", "count"); ("requests.validate", "count");
    ("requests.sweep", "count"); ("requests.simulate", "count");
    ("class.rps", "1/s"); ("class.predict_p50_ms", "ms");
    ("class.predict_p90_ms", "ms"); ("class.validate_p50_ms", "ms");
    ("class.sweep_p50_ms", "ms"); ("class.sweep_points_per_s", "1/s");
    ("class.simulate_s", "s"); ("class.simulate_2dom_s", "s");
    ("fail_frac", "ratio"); ("canary.mismatches", "count");
    ("reconcile.e2e_untraced_us", "us"); ("reconcile.layer_sum_us", "us");
    ("reconcile.residual_us", "us");
  ]

let with_units =
  List.map (fun (k, v) -> (k, v, List.assoc k per_layer_units))

type result = {
  attempted : int;
  failed : int;
  canary_mismatches : int;
  end_to_end : (string * float * string) list;
  figures : (string * float * string) list;  (* everything else measured *)
}

(* --- exact-count canaries ------------------------------------------------ *)

(* Counts that must repeat exactly for a seed and a build. The first run
   of a (workload, seed) with given executables records them; a later
   run of the same build that differs is flagged and fails. The record is
   keyed by a digest of both executables, so a change that legitimately
   moves a count starts a record of its own instead of failing. *)
let ensure_out_dir () = try Sys.mkdir out_dir 0o755 with Sys_error _ -> ()

let build_digest ~exe =
  let file f = try Digest.file f with Sys_error _ -> Digest.string f in
  String.sub (Digest.to_hex (Digest.string (file Sys.executable_name ^ file exe))) 0 16

let check_canaries ~exe ~workload ~seed canaries =
  ensure_out_dir ();
  let path =
    Printf.sprintf "%s/canary-%s-%d-%s.txt" out_dir workload seed (build_digest ~exe)
  in
  let line (k, v) = Printf.sprintf "%s %.17g" k v in
  let mine = List.map line canaries in
  match In_channel.with_open_text path In_channel.input_all with
  | recorded ->
      let recorded = List.filter (( <> ) "") (String.split_on_char '\n' recorded) in
      let bad = List.filter (fun l -> not (List.mem l recorded)) mine in
      List.iter (fun l -> Printf.eprintf "canary differs from the recorded run: %s\n" l) bad;
      List.length bad
  | exception Sys_error _ ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) mine);
      0

let write_trace ~workload ~seed processes =
  ensure_out_dir ();
  let path = Printf.sprintf "%s/trace-%s-%d.json" out_dir workload seed in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Chrome_trace.to_json processes));
  Printf.printf "trace written to %s\n" path

(* --- workloads ----------------------------------------------------------- *)

let serve_workload ~exe ~kind ~workload ~seed ~seconds ~trace =
  let pools = Gen.pools ~seed in
  let oracle = Oracle.create pools in
  match Serve_load.setup ~exe ~pools ~kind with
  | Error e -> Error e
  | Ok (d, setup_s) ->
      let port = d.Daemon.port in
      let untraced_w, traced_w, rss =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            let u = Serve_load.window ~port ~pools ~kind ~seed ~seconds () in
            let t =
              if not trace then None
              else begin
                let tracers =
                  Array.init Serve_load.clients (fun _ -> Obs.Tracer.create ())
                in
                let m0 = Daemon.latency_sum_count d in
                let w =
                  Serve_load.window ~tracers ~port ~pools ~kind ~seed
                    ~seconds:(seconds /. 2.0) ()
                in
                let m1 = Daemon.latency_sum_count d in
                Some (w, tracers, m0, m1)
              end
            in
            (u, t, Daemon.peak_rss_mb d.Daemon.pid))
      in
      let untraced = Serve_load.summarize oracle ~seconds untraced_w in
      let canaries =
        ("plugplay.create_minor_words", Replay.create_minor_words pools)
        :: (match kind with
           | `Predict -> []
           | `Design -> [ ("api.sweep_response_kb", Oracle.sweep_response_kb oracle) ])
      in
      let mismatches = check_canaries ~exe ~workload ~seed canaries in
      let figures = with_units canaries @ Serve_load.class_figures ~pools untraced in
      let traced_figures, attempted, failed =
        match traced_w with
        | None -> ([], untraced.attempted, untraced.failed)
        | Some (w, tracers, m0, m1) ->
            let traced = Serve_load.summarize oracle ~seconds:(seconds /. 2.0) w in
            let daemon_us =
              match (m0, m1) with
              | Some (s0, c0), Some (s1, c1) when c1 -. c0 > 1.0 ->
                  (s1 -. s0) /. (c1 -. c0 -. 1.0)
              | _ -> nan
            in
            let counts = Hashtbl.create 256 in
            List.iter
              (fun r ->
                let op = r.Serve_load.op in
                Hashtbl.replace counts op
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts op)))
              traced.ok;
            let counts = List.sort compare (List.of_seq (Hashtbl.to_seq counts)) in
            let replay_tr = Obs.Tracer.create () in
            let replay, majors = Replay.run replay_tr pools counts in
            write_trace ~workload ~seed
              [
                { Obs.Chrome_trace.pid = 0; name = "client"; spans = Obs.Tracer.merge tracers };
                { pid = 1; name = "in-process replay"; spans = Obs.Tracer.spans replay_tr };
              ];
            ( Serve_load.per_layer ~kind ~pools ~untraced ~traced ~daemon_us
                ~replay ~majors,
              untraced.attempted + traced.attempted,
              untraced.failed + traced.failed
              + int_of_float (Replay.get replay "drift") )
      in
      Ok
        {
          attempted;
          failed;
          canary_mismatches = mismatches;
          end_to_end = Serve_load.end_to_end ~pools ~setup_s ~rss untraced;
          figures = figures @ traced_figures;
        }

let simulate_workload ~exe ~seed ~seconds ~trace =
  let costs, setup_s = Simulate_load.setup () in
  let ((_, calls) as window) = Simulate_load.calls ~seconds ~costs in
  let first = List.hd calls in
  let canaries =
    [
      ("batched.messages", float_of_int first.outcome.messages);
      ("timeline_stream.cells", float_of_int first.cells);
    ]
  in
  let mismatches = check_canaries ~exe ~workload:"simulate" ~seed canaries in
  let traced_calls, traced_figures =
    if not trace then ([], [])
    else begin
      let tr = Obs.Tracer.create () in
      let c1, l = Simulate_load.per_layer tr ~costs ~untraced:calls in
      write_trace ~workload:"simulate" ~seed
        [ { Obs.Chrome_trace.pid = 0; name = "simulate"; spans = Obs.Tracer.spans tr } ];
      ([ c1 ], l)
    end
  in
  let all = calls @ traced_calls in
  Ok
    {
      attempted = List.length all;
      failed = List.length (List.filter (fun c -> not (Simulate_load.correct ~first c)) all);
      canary_mismatches = mismatches;
      end_to_end = Simulate_load.end_to_end ~setup_s ~seconds window;
      figures = with_units canaries @ Simulate_load.class_figures calls @ traced_figures;
    }

(* --- output -------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let emit ~trace r =
  let fail_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  let figures =
    r.figures
    @ [ ("fail_frac", fail_frac, "ratio");
        ("canary.mismatches", float_of_int r.canary_mismatches, "count") ]
  in
  let find k = List.find_map (fun (k', v, _) -> if k = k' then Some v else None) in
  Printf.printf "%-34s %18s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (k, v, u) -> Printf.printf "%-34s %18.6g  %s\n" k v u)
    (r.end_to_end @ figures);
  let metrics =
    if trace then
      List.map
        (fun (k, u) -> (k, Option.value ~default:0.0 (find k figures), u))
        per_layer_units
    else r.end_to_end
  in
  let correct =
    r.failed = 0 && r.canary_mismatches = 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_num v) u)
          metrics))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--wavefront", Arg.Set_string exe, "PATH the wavefront executable");
      ("--workload", Arg.Set_string workload, "NAME predict, design or simulate");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--selftest", Arg.Set selftest, " run the oracle's negative controls");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --wavefront PATH --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then exit (Selftest.run ~exe:!exe);
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let serve kind = serve_workload ~exe:!exe ~kind ~workload:!workload ~seed ~seconds ~trace in
  let result =
    match !workload with
    | "predict" -> serve `Predict
    | "design" -> serve `Design
    | "simulate" -> simulate_workload ~exe:!exe ~seed ~seconds ~trace
    | w -> Error ("unknown workload " ^ w)
  in
  match result with
  | Ok r -> emit ~trace r
  | Error e ->
      prerr_endline ("bench: " ^ e);
      exit 2
