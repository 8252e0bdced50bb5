(* Tests for the idle-wave analytics: the pinned single-pulse chain
   scenario where the analytic model, the event-level simulator and the
   batched engine agree exactly (and the real kernel within a
   busy-wait tolerance), QCheck properties for origin recovery and speed
   reconciliation, detector edge cases, and the Chrome-trace category
   tagging of injected spans. *)

open Wavefront_core

(* --- The pinned scenario: a pulse on a chain of ranks --- *)

(* A 1-D pipeline: one Up sweep over a cols x 1 processor grid, one tile
   per wave, uniform work, no epilogue. Interior ranks tie exactly, so an
   injected pulse propagates undamped at exactly one LogGP hop cost per
   rank — the silent-system limit of the idle-wave model. *)
let chain ?(ranks = 8) ?(nz = 16) ?(wg = 1.0) () =
  let schedule =
    Sweeps.Schedule.v [ Sweeps.Schedule.sweep Wgrid.Proc_grid.C11 `Up ]
  in
  let grid = Wgrid.Data_grid.v ~nx:(2 * ranks) ~ny:2 ~nz in
  let app =
    Apps.Custom.params ~name:"chain" ~schedule ~htile:1.0
      ~nonwavefront:App_params.No_op ~wg grid
  in
  let cfg =
    Plugplay.config ~cmp:Wgrid.Cmp.single_core
      ~pgrid:(Wgrid.Proc_grid.v ~cols:ranks ~rows:1)
      Loggp.Params.xt4 ~cores:ranks
  in
  (cfg, app)

let pulse ~rank ~wave delay =
  Perturb.Spec.v
    ~pulses:[ ({ rank; wave; delay } : Perturb.Spec.pulse) ]
    ()

let run_chain ?ranks ?nz ?wg ?real spec =
  let cfg, app = chain ?ranks ?nz ?wg () in
  Harness.Idlewave_report.run ?real ~model_bus:false cfg app spec

let test_pinned_single_pulse () =
  let r = run_chain (pulse ~rank:3 ~wave:8 500.0) in
  (* The two deterministic substrates coincide cell for cell even under
     the pulse, so one detector result speaks for both. *)
  Alcotest.(check bool) "sim = batched under pulse" true r.identity;
  Alcotest.(check bool) "batched detector agrees on origin" true
    (r.sim.origin = r.batched.origin);
  (* Origin recovered exactly, amplitude to float precision. *)
  Alcotest.(check (option (pair int int))) "origin (rank, wave)"
    (Some (3, 8)) r.sim.origin;
  Alcotest.(check (float 1e-6)) "origin amplitude = injected delta" 500.0
    r.sim.delta;
  (* Every downstream rank is hit at the injected wave with the full,
     undamped amplitude — no decay on a silent system. *)
  let downstream =
    List.filter (fun (f : Obs.Idle_wave.front) -> f.rank > 3) r.sim.fronts
  in
  Alcotest.(check (list int)) "downstream fronts at ranks 4..7" [ 4; 5; 6; 7 ]
    (List.map (fun (f : Obs.Idle_wave.front) -> f.rank) downstream);
  List.iter
    (fun (f : Obs.Idle_wave.front) ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d front leads at the injected wave" f.rank)
        8 f.lead_wave;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "rank %d amplitude undamped" f.rank)
        500.0 f.amplitude)
    downstream;
  (* The fitted propagation speed is the analytic LogGP hop cost, on both
     deterministic substrates, to float precision. *)
  let im =
    match r.model with
    | Some im -> im
    | None -> Alcotest.fail "spec has a pulse: analytic model expected"
  in
  Alcotest.(check (pair int int)) "analytic origin" (3, 8)
    (Perturb.Idle_model.origin im);
  let hop = Perturb.Idle_model.hop_cost im in
  let fit d =
    match Harness.Idlewave_report.main_fit d with
    | Some f -> f
    | None -> Alcotest.fail "expected a propagation fit"
  in
  Alcotest.(check int) "fit uses the interior downstream fronts" 3
    (fit r.sim).points;
  Alcotest.(check (float 1e-6)) "sim speed = analytic hop cost" hop
    (fit r.sim).hop_latency;
  Alcotest.(check (float 1e-6)) "batched speed = analytic hop cost" hop
    (fit r.batched).hop_latency;
  Alcotest.(check (float 1e-9)) "no decay on a silent system" 0.0
    (fit r.sim).decay;
  (match Harness.Idlewave_report.speed_error r with
  | Some e ->
      Alcotest.(check bool) "speed error below float-noise" true (e < 1e-9)
  | None -> Alcotest.fail "speed error expected");
  Alcotest.(check int) "exit clean even when strict" 0
    (Harness.Idlewave_report.exit_status ~fail_on_mismatch:true r)

let test_zero_spec_no_fronts () =
  let r = run_chain Perturb.Spec.zero in
  Alcotest.(check bool) "identity holds on the control pair" true r.identity;
  Alcotest.(check (option (pair int int))) "no origin" None r.sim.origin;
  Alcotest.(check int) "no fronts" 0 (List.length r.sim.fronts);
  Alcotest.(check bool) "no analytic model without a pulse" true
    (r.model = None);
  Alcotest.(check int) "exit clean" 0
    (Harness.Idlewave_report.exit_status ~fail_on_mismatch:true r)

(* Acceptance: a larger injected delta never measures smaller and is
   never detected later. *)
let test_monotone_in_delta () =
  let runs =
    List.map (fun d -> (d, run_chain (pulse ~rank:2 ~wave:8 d)))
      [ 100.0; 300.0; 900.0 ]
  in
  let onset_of r =
    match
      List.find_opt
        (fun (f : Obs.Idle_wave.front) -> f.rank = 3)
        r.Harness.Idlewave_report.sim.fronts
    with
    | Some f -> f.onset
    | None -> Alcotest.fail "front at the neighbor rank expected"
  in
  ignore
    (List.fold_left
       (fun prev (d, r) ->
         Alcotest.(check (float 1e-6))
           (Printf.sprintf "amplitude %.0f measured exactly" d)
           d r.Harness.Idlewave_report.sim.delta;
         (match prev with
         | None -> ()
         | Some (pd, pa, po) ->
             Alcotest.(check bool)
               (Printf.sprintf "amplitude grows %.0f -> %.0f" pd d)
               true
               (r.Harness.Idlewave_report.sim.delta > pa);
             Alcotest.(check bool)
               (Printf.sprintf "detection no later %.0f -> %.0f" pd d)
               true
               (onset_of r <= po +. 1e-6));
         Some (d, r.Harness.Idlewave_report.sim.delta, onset_of r))
       None runs)

(* The real shared-memory kernel: origin recovered exactly, amplitude
   within the busy-wait tolerance of the injected delta. The run puts
   one OCaml domain per rank; when the host has fewer cores than ranks
   the domains timeshare and preemption smears wall-clock waits by more
   than the injected pulse, so the exact assertions only run where they
   are meaningful — on a starved host the test still requires a
   detected wave, just not its precise placement. *)
let test_real_within_tolerance () =
  let ranks = 4 in
  let r =
    run_chain ~ranks ~nz:8 ~wg:20.0 ~real:true (pulse ~rank:1 ~wave:4 500.0)
  in
  let real =
    match r.real with
    | Some d -> d
    | None -> Alcotest.fail "real detector expected"
  in
  let cores = Domain.recommended_domain_count () in
  if cores >= ranks then begin
    Alcotest.(check (option (pair int int))) "real origin exact" (Some (1, 4))
      real.origin;
    Alcotest.(check bool)
      (Printf.sprintf "real amplitude %.1f within tolerance of 500" real.delta)
      true
      (real.delta > 250.0 && real.delta < 1000.0)
  end
  else begin
    Printf.printf
      "suite_idlewave: %d core(s) < %d ranks — domains timeshare, wall \
       clocks are unreliable; checking detection only, not exact origin\n"
      cores ranks;
    Alcotest.(check bool) "real wave detected" true (real.origin <> None);
    Alcotest.(check bool)
      (Printf.sprintf "real amplitude %.1f positive" real.delta)
      true (real.delta > 0.0)
  end

(* --- QCheck properties --- *)

let prop_single_pulse_recovered =
  let gen =
    QCheck.Gen.(
      map
        (fun (((ranks, rank), wave), delay) ->
          (* keep >= 2 interior downstream ranks so the speed fit exists
             (the boundary rank is excluded from the fit) *)
          (ranks, min rank (ranks - 4), wave, delay))
        (pair
           (pair (pair (int_range 5 9) (int_range 1 6)) (int_range 4 8))
           (float_range 100.0 1500.0)))
  in
  let print (ranks, rank, wave, delay) =
    Printf.sprintf "ranks=%d pulse=%d:%d:%.1f" ranks rank wave delay
  in
  QCheck.Test.make ~count:8
    ~name:"single pulse: origin exact, speed matches the analytic model"
    (QCheck.make ~print gen)
    (fun (ranks, rank, wave, delay) ->
      let r = run_chain ~ranks ~nz:12 (pulse ~rank ~wave delay) in
      let im = Option.get r.model in
      let hop = Perturb.Idle_model.hop_cost im in
      r.identity
      && r.sim.origin = Some (rank, wave)
      && Float.abs (r.sim.delta -. delay) < 1e-6
      && (match Harness.Idlewave_report.main_fit r.sim with
         | Some f -> Float.abs (f.hop_latency -. hop) /. hop < 1e-6
         | None -> false))

let prop_zero_spec_silent =
  QCheck.Test.make ~count:6 ~name:"zero spec: no origin, no fronts"
    (QCheck.make
       ~print:(fun (ranks, nz) -> Printf.sprintf "ranks=%d nz=%d" ranks nz)
       QCheck.Gen.(pair (int_range 3 8) (int_range 4 10)))
    (fun (ranks, nz) ->
      let r = run_chain ~ranks ~nz Perturb.Spec.zero in
      r.sim.origin = None && r.sim.fronts = [] && r.batched.fronts = [])

(* --- Detector edge cases --- *)

let test_empty_timeline () =
  let tl = Obs.Timeline.of_spans [] in
  Alcotest.(check int) "no ranks" 0 tl.ranks;
  let d = Obs.Idle_wave.detect tl in
  Alcotest.(check (option (pair int int))) "no origin" None d.origin;
  Alcotest.(check int) "no fronts" 0 (List.length d.fronts);
  (* Rendering and export of the degenerate report stay well-defined. *)
  let e = Obs.Timeline.empty ~waves:5 () in
  Alcotest.(check int) "forced waves kept" 5 e.waves;
  ignore (Fmt.str "%a" (fun ppf -> Obs.Timeline.render ppf) tl);
  ignore (Obs.Timeline.to_json tl);
  ignore (Obs.Timeline.to_csv tl)

let test_render_mark_overlay () =
  let r = run_chain (pulse ~rank:3 ~wave:8 500.0) in
  let txt =
    Fmt.str "%a"
      (fun ppf ->
        Obs.Timeline.render ~metric:Obs.Timeline.Wait
          ~mark:(fun ~rank ~col -> Obs.Idle_wave.mark r.sim ~rank ~col)
          ppf)
      r.timeline
  in
  Alcotest.(check bool) "origin marked" true (String.contains txt 'O');
  Alcotest.(check bool) "fronts marked" true (String.contains txt '>')

(* --- Chrome-trace categories for injected spans --- *)

let test_chrome_trace_categories () =
  let span ?(cat = "") name =
    Obs.Span.v ~cat ~rank:0 ~start:0.0 ~dur:1.0 name
  in
  let json spans =
    Obs.Chrome_trace.to_json [ { pid = 1; name = "sim"; spans } ]
  in
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "perturb.* leads with the perturb category" true
    (contains
       (json [ span ~cat:"compute" "perturb.pulse" ])
       {|"cat":"perturb,compute"|});
  Alcotest.(check bool) "recover.* tagged even without a producer cat" true
    (contains (json [ span "recover.checkpoint" ]) {|"cat":"recover"|});
  Alcotest.(check bool) "ordinary spans keep their category" true
    (contains (json [ span ~cat:"compute" "compute" ]) {|"cat":"compute"|})

(* --- The new spec clauses --- *)

let test_spec_clauses () =
  match Perturb.Spec.of_string "pulse=3:40:500 periodic=16:120 collnoise=80"
  with
  | Error (`Msg m) -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "one pulse" 1 (List.length s.pulses);
      let p = List.hd s.pulses in
      Alcotest.(check int) "pulse rank" 3 p.rank;
      Alcotest.(check int) "pulse wave" 40 p.wave;
      Alcotest.(check (float 1e-9)) "pulse delay" 500.0 p.delay;
      (match s.periodic with
      | Some { period; amplitude } ->
          Alcotest.(check int) "periodic period" 16 period;
          Alcotest.(check (float 1e-9)) "periodic amplitude" 120.0 amplitude
      | None -> Alcotest.fail "periodic clause expected");
      Alcotest.(check (float 1e-9)) "collnoise" 80.0 s.coll_noise;
      Alcotest.(check bool) "not the zero spec" false (Perturb.Spec.is_zero s);
      (* Malformed clauses are rejected, not ignored. *)
      List.iter
        (fun bad ->
          match Perturb.Spec.of_string bad with
          | Ok _ -> Alcotest.failf "accepted %S" bad
          | Error _ -> ())
        [ "pulse=3:40"; "pulse=-1:4:10"; "periodic=0:50"; "collnoise=-1" ]

let suite =
  [
    ( "idlewave.pinned",
      [
        Alcotest.test_case "single pulse on a chain: all substrates agree"
          `Quick test_pinned_single_pulse;
        Alcotest.test_case "zero spec detects nothing" `Quick
          test_zero_spec_no_fronts;
        Alcotest.test_case "monotone in the injected delta" `Quick
          test_monotone_in_delta;
        Alcotest.test_case "real kernel within tolerance" `Slow
          test_real_within_tolerance;
      ] );
    ( "idlewave.properties",
      [
        QCheck_alcotest.to_alcotest prop_single_pulse_recovered;
        QCheck_alcotest.to_alcotest prop_zero_spec_silent;
      ] );
    ( "idlewave.detector",
      [
        Alcotest.test_case "empty timeline degrades gracefully" `Quick
          test_empty_timeline;
        Alcotest.test_case "front overlay on the heatmap" `Quick
          test_render_mark_overlay;
      ] );
    ( "idlewave.satellites",
      [
        Alcotest.test_case "chrome trace categories" `Quick
          test_chrome_trace_categories;
        Alcotest.test_case "spec clauses parse and validate" `Quick
          test_spec_clauses;
      ] );
  ]
