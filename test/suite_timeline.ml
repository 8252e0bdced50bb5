(* Tests for the wave-resolved timeline analytics: golden reconstruction
   from hand-built spans (including a truncated trace), the cross-substrate
   identity between the event-level simulator and the batched engine's
   analytic term schedule, and the exactness of the wave-by-wave
   divergence attribution. *)

let span = Obs.Span.v

let wave w = [ (Obs.Timeline.wave_arg, Obs.Span.Int w) ]

(* Two ranks, two waves plus an epilogue, hand-built so every bucket of the
   decomposition is known exactly. *)
let golden_spans =
  [
    (* rank 0: wave 0 = compute 4; wave 1 = send (1 us busy) + compute 3 *)
    span ~cat:"compute" ~rank:0 ~start:0.0 ~dur:4.0 ~args:(wave 0) "compute";
    span ~cat:"comm" ~rank:0 ~start:4.0 ~dur:1.0
      ~args:(("dst", Obs.Span.Int 1) :: wave 1)
      "send";
    span ~cat:"compute" ~rank:0 ~start:5.0 ~dur:3.0 ~args:(wave 1) "compute";
    (* rank 1: wave 0 = recv with 2 us blocked inside a 3 us span;
       wave 1 = compute 4 after 1 us of idle gap; epilogue = 2 us halo *)
    span ~cat:"comm" ~rank:1 ~start:2.0 ~dur:3.0
      ~args:
        (("src", Obs.Span.Int 0) :: ("wait", Obs.Span.Float 2.0) :: wave 0)
      "recv";
    span ~cat:"compute" ~rank:1 ~start:6.0 ~dur:4.0 ~args:(wave 1) "compute";
    span ~cat:"comm" ~rank:1 ~start:10.0 ~dur:2.0
      ~args:(wave Obs.Timeline.epilogue_wave)
      "halo";
  ]

let test_golden_reconstruction () =
  let tl = Obs.Timeline.of_spans golden_spans in
  Alcotest.(check int) "ranks" 2 tl.ranks;
  Alcotest.(check int) "waves" 2 tl.waves;
  Alcotest.(check int) "columns = waves + epilogue" 3 (Obs.Timeline.columns tl);
  Alcotest.(check int) "epilogue column" 2 (Obs.Timeline.epilogue_column tl);
  Alcotest.(check int) "no drops recorded" 0 tl.dropped;
  let c00 = Obs.Timeline.cell tl ~rank:0 ~col:0 in
  Alcotest.(check (float 1e-9)) "r0 w0 compute" 4.0 c00.compute;
  Alcotest.(check (float 1e-9)) "r0 w0 idle" 0.0 c00.idle;
  let c01 = Obs.Timeline.cell tl ~rank:0 ~col:1 in
  Alcotest.(check (float 1e-9)) "r0 w1 send" 1.0 c01.send;
  Alcotest.(check (float 1e-9)) "r0 w1 compute" 3.0 c01.compute;
  let c10 = Obs.Timeline.cell tl ~rank:1 ~col:0 in
  Alcotest.(check (float 1e-9)) "r1 w0 wait" 2.0 c10.wait;
  Alcotest.(check (float 1e-9)) "r1 w0 recv (pure share)" 1.0 c10.recv;
  (* The window runs to the next column's first span, so the 1 us gap
     between the recv and the wave-1 compute is idle time of wave 0. *)
  Alcotest.(check (float 1e-9)) "r1 gap after recv is idle" 1.0 c10.idle;
  let c11 = Obs.Timeline.cell tl ~rank:1 ~col:1 in
  Alcotest.(check (float 1e-9)) "r1 w1 compute" 4.0 c11.compute;
  Alcotest.(check (float 1e-9)) "r1 w1 fully busy" 0.0 c11.idle;
  let ep = Obs.Timeline.cell tl ~rank:1 ~col:2 in
  Alcotest.(check (float 1e-9)) "r1 epilogue halo is other" 2.0 ep.other;
  (* The decomposition is exact: buckets sum to the window width in every
     cell, and the windows tile each rank's span of the run. *)
  for r = 0 to tl.ranks - 1 do
    for col = 0 to Obs.Timeline.columns tl - 1 do
      let c = Obs.Timeline.cell tl ~rank:r ~col in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "r%d c%d buckets tile the window" r col)
        (Obs.Timeline.cell_width c)
        (c.compute +. c.send +. c.recv +. c.wait +. c.other +. c.idle)
    done;
    let width =
      Array.fold_left
        (fun acc c -> acc +. Obs.Timeline.cell_width c)
        0.0 tl.cells.(r)
    in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "rank %d windows cover start..finish" r)
      (tl.finish.(r) -. tl.start.(r))
      width
  done

let test_untagged_anchoring () =
  (* An untagged span between two tagged ones lands in the wave of the
     anchor around it instead of being lost. *)
  let spans =
    [
      span ~cat:"compute" ~rank:0 ~start:0.0 ~dur:2.0 ~args:(wave 0) "compute";
      span ~cat:"comm" ~rank:0 ~start:2.0 ~dur:1.0 "send";
      span ~cat:"compute" ~rank:0 ~start:3.0 ~dur:2.0 ~args:(wave 1) "compute";
    ]
  in
  let tl = Obs.Timeline.of_spans spans in
  let total_send =
    Obs.Timeline.rank_total tl Obs.Timeline.Send 0
  in
  Alcotest.(check (float 1e-9)) "untagged send is still accounted" 1.0
    total_send;
  Alcotest.(check (float 1e-9)) "no idle invented" 0.0
    (Obs.Timeline.rank_total tl Obs.Timeline.Idle 0)

let test_dropped_carried () =
  let tl = Obs.Timeline.of_spans ~dropped:3 ~waves:4 golden_spans in
  Alcotest.(check int) "drop count carried into the timeline" 3 tl.dropped;
  Alcotest.(check int) "forced wave floor" 4 tl.waves;
  let json = Obs.Timeline.to_json tl in
  let has_sub ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "JSON carries the schema id" true
    (has_sub ~sub:Obs.Timeline.schema json);
  Alcotest.(check bool) "JSON carries the drop count" true
    (has_sub ~sub:"\"dropped\":3" json);
  (* CSV: a header plus one row per (rank, column). *)
  let csv = Obs.Timeline.to_csv tl in
  let rows =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "CSV row count"
    (1 + (tl.ranks * Obs.Timeline.columns tl))
    (List.length rows)

let test_metric_names () =
  List.iter
    (fun m ->
      match Obs.Timeline.(metric_of_string (metric_name m)) with
      | Some m' -> Alcotest.(check bool) "round trips" true (m = m')
      | None -> Alcotest.failf "metric %s" (Obs.Timeline.metric_name m))
    Obs.Timeline.[ Compute; Send; Recv; Wait; Idle; Busy; Total ];
  Alcotest.(check bool) "unknown rejected" true
    (Obs.Timeline.metric_of_string "bogus" = None)

(* --- The cross-substrate identity (the PR's acceptance test) --- *)

let identity_report () =
  let app =
    { (Apps.Sweep3d.params (Wgrid.Data_grid.cube 16)) with
      Wavefront_core.App_params.nonwavefront = Wavefront_core.App_params.No_op
    }
  in
  let cfg =
    Wavefront_core.Plugplay.config ~cmp:Wgrid.Cmp.single_core Loggp.Params.xt4
      ~cores:4
  in
  Harness.Timeline_report.run ~model_bus:false cfg app

let test_substrate_identity () =
  let r = identity_report () in
  (* Same spec, two substrates (event-level simulator vs the batched
     engine): identical rank x wave decompositions to float precision. *)
  Alcotest.(check int) "same ranks" r.observed.ranks r.model.ranks;
  Alcotest.(check int) "same waves" r.observed.waves r.model.waves;
  Alcotest.(check bool) "timelines coincide" true
    (Obs.Timeline.equal ~tol:1e-6 r.observed r.model);
  Alcotest.(check int) "no spans dropped (sim)" 0 r.observed.dropped;
  Alcotest.(check int) "no spans dropped (model)" 0 r.model.dropped

let test_divergence_exact () =
  let r = identity_report () in
  let d = r.divergence in
  Alcotest.(check (float 1e-9)) "gap = t_iteration - elapsed"
    (d.t_iteration -. d.elapsed) d.gap;
  (* The attribution is exact by construction: folding + ramp + per-bucket
     deltas + tail recover the whole model error. *)
  Alcotest.(check (float 1e-6)) "attributed parts sum to the gap" d.gap
    d.attributed;
  let parts =
    d.folding +. d.ramp +. d.tail
    +. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.terms
  in
  Alcotest.(check (float 1e-6)) "terms re-sum" d.attributed parts;
  (* With bus modelling off the substrates coincide, so every per-bucket
     delta vanishes and the gap is pure pipeline folding. *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 1e-6)) (name ^ " delta vanishes") 0.0 v)
    d.terms;
  Alcotest.(check (float 1e-6)) "ramp vanishes" 0.0 d.ramp;
  Alcotest.(check (float 1e-6)) "tail vanishes" 0.0 d.tail

let test_report_documents () =
  let r = identity_report () in
  let json = Harness.Timeline_report.to_json r in
  let has_sub ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report schema" true
    (has_sub ~sub:"wavefront-timeline-report/v1" json);
  Alcotest.(check bool) "embeds the timeline schema" true
    (has_sub ~sub:Obs.Timeline.schema json);
  let csv = Harness.Timeline_report.to_csv r in
  Alcotest.(check bool) "CSV has observed and model sections" true
    (has_sub ~sub:"# observed" csv && has_sub ~sub:"# model" csv);
  (* Rendering never raises, whatever the metric. *)
  List.iter
    (fun metric ->
      ignore (Fmt.str "%a" (Harness.Timeline_report.pp ~metric) r))
    Obs.Timeline.[ Compute; Send; Recv; Wait; Idle; Busy; Total ]

let suite =
  [
    ( "timeline.reconstruct",
      [
        Alcotest.test_case "golden decomposition" `Quick
          test_golden_reconstruction;
        Alcotest.test_case "untagged spans anchored" `Quick
          test_untagged_anchoring;
        Alcotest.test_case "dropped spans carried" `Quick test_dropped_carried;
        Alcotest.test_case "metric names" `Quick test_metric_names;
      ] );
    ( "timeline.identity",
      [
        Alcotest.test_case "xtsim = batched model" `Quick
          test_substrate_identity;
        Alcotest.test_case "divergence attribution exact" `Quick
          test_divergence_exact;
        Alcotest.test_case "JSON and CSV documents" `Quick
          test_report_documents;
      ] );
  ]
