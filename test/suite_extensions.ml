(* Tests for the extensions beyond the paper's core artifacts: scaling
   metrics, the memory model, per-sweep breakdowns and sync terms, simulator
   instrumentation (stats, noise, balance, hop latency), and the experiment
   harness plumbing. *)

open Wavefront_core

let xt4 = Loggp.Params.xt4
let feq = Alcotest.float 1e-6

(* --- Metrics --- *)

let test_serial_time () =
  let app = Apps.Chimaera.params (Wgrid.Data_grid.cube 64) in
  let cfg = Plugplay.config xt4 ~cores:256 in
  (* Serial: 8 sweeps x Nz tiles x Wg * 64^2 cells/tile, no comm. *)
  let expected = 8.0 *. 64.0 *. (1.0 *. 64.0 *. 64.0) in
  Alcotest.check feq "serial" expected (Metrics.serial_time app cfg)

let test_speedup_bounds () =
  let app = Apps.Chimaera.p240 () in
  List.iter
    (fun cores ->
      let cfg = Plugplay.config xt4 ~cores in
      let s = Metrics.speedup app cfg in
      let e = Metrics.efficiency app cfg in
      Alcotest.(check bool)
        (Fmt.str "P=%d: 1 <= S=%.1f <= P" cores s)
        true
        (s >= 1.0 && s <= float_of_int cores);
      Alcotest.(check bool) "efficiency in (0,1]" true (e > 0.0 && e <= 1.0))
    [ 16; 256; 4096 ]

let test_efficiency_decreases () =
  let app = Apps.Chimaera.p240 () in
  let eff cores = Metrics.efficiency app (Plugplay.config xt4 ~cores) in
  Alcotest.(check bool) "monotone decline" true
    (eff 256 > eff 4096 && eff 4096 > eff 65536)

let test_cores_for_target () =
  let app = Apps.Chimaera.p240 () in
  match
    Metrics.cores_for_target ~platform:xt4 ~target_us:200_000.0
      ~max_cores:65536 app
  with
  | None -> Alcotest.fail "expected a feasible core count"
  | Some c ->
      let t cores =
        Plugplay.time_per_iteration app (Plugplay.config xt4 ~cores)
      in
      Alcotest.(check bool) "meets target" true (t c <= 200_000.0);
      if c > 1 then
        Alcotest.(check bool) "halving misses target" true
          (t (c / 2) > 200_000.0)

let test_overheads_sum () =
  let app = Apps.Lu.class_e () in
  let cfg = Plugplay.config xt4 ~cores:1024 in
  let o = Metrics.overheads app cfg in
  let total = Plugplay.time_per_iteration app cfg in
  Alcotest.check (Alcotest.float 1e-3) "sum = total" total
    (o.ideal +. o.fill +. o.communication +. o.nonwavefront)

(* --- Memory model --- *)

let test_memory_scales_down () =
  let app = Apps.Sweep3d.p1b () in
  let mm = Memory_model.transport ~angles:6 in
  let b cores = Memory_model.bytes_per_rank mm app (Wgrid.Proc_grid.of_cores cores) in
  Alcotest.(check bool) "decreases with P" true (b 1024 > b 8192 && b 8192 > b 65536)

let test_memory_state_term () =
  let app = Apps.Lu.class_e () in
  let pg = Wgrid.Proc_grid.of_cores 1024 in
  let mm = Memory_model.lu in
  (* State alone: 40 B * (1000/32) * (1000/32) * 1000 cells. *)
  let state = 40.0 *. (1000.0 /. 32.0) *. (1000.0 /. 32.0) *. 1000.0 in
  Alcotest.(check bool) "state dominates and is included" true
    (Memory_model.bytes_per_rank mm app pg >= state)

let test_min_cores_for () =
  let app = Apps.Sweep3d.p1b () in
  let mm = Memory_model.transport ~angles:6 in
  match
    Memory_model.min_cores_for mm app ~bytes_budget:(64.0 *. 1024.0 *. 1024.0)
      ~max_cores:(1 lsl 20)
  with
  | None -> Alcotest.fail "should fit somewhere"
  | Some c ->
      Alcotest.(check bool) "fits" true
        (Memory_model.bytes_per_rank mm app (Wgrid.Proc_grid.of_cores c)
        <= 64.0 *. 1024.0 *. 1024.0)

(* --- Sweep times and sync terms --- *)

let test_sweep_times_sum () =
  List.iter
    (fun app ->
      let cfg = Plugplay.config xt4 ~cores:1024 in
      let r = Plugplay.iteration app cfg in
      let sum =
        List.fold_left (fun a (_, t) -> a +. t) 0.0 (Plugplay.sweep_times app cfg)
      in
      Alcotest.check (Alcotest.float 1e-3)
        (app.App_params.name ^ ": sweeps sum to iteration minus epilogue")
        (r.t_iteration -. r.t_nonwavefront)
        sum)
    [ Apps.Lu.class_e (); Apps.Sweep3d.p1b (); Apps.Chimaera.p240 () ]

let test_sync_terms () =
  let app = Apps.Sweep3d.p20m () in
  let t sync_terms platform =
    Plugplay.time_per_iteration app
      (Plugplay.config ~cmp:Wgrid.Cmp.single_core ~sync_terms platform
         ~cores:128)
  in
  let share p = (t true p -. t false p) /. t true p in
  Alcotest.(check bool) "sync costs time" true (t true xt4 > t false xt4);
  Alcotest.(check bool) "significant on SP/2, small on XT4" true
    (share Loggp.Params.sp2 > 10.0 *. share xt4)

(* --- Simulator instrumentation --- *)

let sim_machine ?cmp cores =
  let cmp = Option.value cmp ~default:Wgrid.Cmp.single_core in
  Xtsim.Machine.v ~cmp xt4 (Wgrid.Proc_grid.of_cores cores)

let test_stats_accounting () =
  let app = Apps.Chimaera.params (Wgrid.Data_grid.cube 64) in
  let o = Xtsim.Wavefront_sim.run (sim_machine 64) app in
  Alcotest.(check bool) "completed" true o.completed;
  Array.iter
    (fun (s : Xtsim.Wavefront_sim.rank_stats) ->
      Alcotest.(check bool) "busy <= finish" true
        (s.compute +. s.comm <= s.finish +. 1e-6);
      Alcotest.(check bool) "positive" true (s.compute > 0.0 && s.comm > 0.0))
    o.stats;
  (* Total compute is exactly nsweeps * ntiles * W summed over ranks. *)
  let pg = Wgrid.Proc_grid.of_cores 64 in
  let w = app.wg *. Wgrid.Decomp.cells_per_tile app.grid pg ~htile:app.htile in
  let expected = 8.0 *. 64.0 *. w *. 64.0 in
  Alcotest.check (Alcotest.float 1e-3) "compute total"
    expected
    (Xtsim.Wavefront_sim.compute_total o);
  let share = Xtsim.Wavefront_sim.comm_share o in
  Alcotest.(check bool) "comm share in (0,1)" true (share > 0.0 && share < 1.0)

let test_noise_zero_is_noiseless () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  let base = Xtsim.Wavefront_sim.run (sim_machine 16) app in
  let zero =
    Xtsim.Wavefront_sim.run ~noise:{ amplitude = 0.0; seed = 1 }
      (sim_machine 16) app
  in
  Alcotest.check feq "same elapsed" base.elapsed zero.elapsed

let test_noise_deterministic_and_slowing () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  let run seed =
    (Xtsim.Wavefront_sim.run ~noise:{ amplitude = 0.4; seed } (sim_machine 16)
       app)
      .elapsed
  in
  Alcotest.check feq "same seed, same run" (run 5) (run 5);
  Alcotest.(check bool) "different seeds differ" true (run 5 <> run 6);
  let base = (Xtsim.Wavefront_sim.run (sim_machine 16) app).elapsed in
  Alcotest.(check bool) "jitter slows the pipeline" true (run 5 > base)

let test_noise_amplitude_validated () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  Alcotest.check_raises "amplitude >= 1"
    (Invalid_argument "Wavefront_sim.run: noise amplitude must be in [0, 1)")
    (fun () ->
      ignore
        (Xtsim.Wavefront_sim.run ~noise:{ amplitude = 1.0; seed = 1 }
           (sim_machine 16) app))

let test_balanced_divisible_matches_uniform () =
  let app = Apps.Chimaera.params (Wgrid.Data_grid.cube 64) in
  let u = Xtsim.Wavefront_sim.run (sim_machine 16) app in
  let b = Xtsim.Wavefront_sim.run ~balanced:true (sim_machine 16) app in
  Alcotest.check feq "divisible grid: identical" u.elapsed b.elapsed

let test_balanced_ragged_slower () =
  let app = Apps.Chimaera.params (Wgrid.Data_grid.cube 65) in
  let u = Xtsim.Wavefront_sim.run (sim_machine 16) app in
  let b = Xtsim.Wavefront_sim.run ~balanced:true (sim_machine 16) app in
  Alcotest.(check bool) "ragged blocks cost time" true (b.elapsed > u.elapsed)

(* --- Torus hops --- *)

let test_hops_and_latency () =
  let m =
    Xtsim.Machine.v ~l_per_hop:0.5 ~cmp:Wgrid.Cmp.single_core xt4
      (Wgrid.Proc_grid.v ~cols:8 ~rows:8)
  in
  let rank i j = Wgrid.Proc_grid.rank m.pgrid (i, j) in
  Alcotest.(check int) "same node" 0 (Xtsim.Machine.hops m ~src:(rank 1 1) ~dst:(rank 1 1));
  Alcotest.(check int) "neighbour" 1 (Xtsim.Machine.hops m ~src:(rank 1 1) ~dst:(rank 2 1));
  (* Torus wrap: column 1 to column 8 is one hop, not seven. *)
  Alcotest.(check int) "wraparound" 1 (Xtsim.Machine.hops m ~src:(rank 1 1) ~dst:(rank 8 1));
  (* (1,1) -> (4,5): 3 hops in x, min(4, 8-4) = 4 in y. *)
  Alcotest.(check int) "diagonal" 7
    (Xtsim.Machine.hops m ~src:(rank 1 1) ~dst:(rank 4 5));
  Alcotest.check feq "latency adds per extra hop"
    (xt4.offnode.l +. (0.5 *. 6.0))
    (Xtsim.Machine.latency m ~src:(rank 1 1) ~dst:(rank 4 5))

let test_hop_latency_spares_sweeps () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  let pg = Wgrid.Proc_grid.of_cores 16 in
  let base =
    Xtsim.Wavefront_sim.run (Xtsim.Machine.v ~cmp:Wgrid.Cmp.single_core xt4 pg) app
  in
  let hoppy =
    Xtsim.Wavefront_sim.run
      (Xtsim.Machine.v ~l_per_hop:1.0 ~cmp:Wgrid.Cmp.single_core xt4 pg)
      app
  in
  (* Near-neighbour sweeps: identical. The all-reduce partners do cross
     hops, so allow only that tiny growth. *)
  let rel = (hoppy.elapsed -. base.elapsed) /. base.elapsed in
  Alcotest.(check bool) (Fmt.str "rel=%.5f" rel) true (rel >= 0.0 && rel < 0.01)

(* --- Harness plumbing --- *)

let test_table_csv () =
  let t =
    Harness.Table.v ~id:"T" ~title:"t" ~headers:[ "a"; "b" ]
      [ [ "1"; "x,y" ]; [ "2"; "z" ] ]
  in
  Alcotest.(check string) "csv" "a,b\n1,\"x,y\"\n2,z\n" (Harness.Table.to_csv t)

let test_experiment_registry () =
  let ids = Harness.Experiments.ids () in
  Alcotest.(check bool) "all paper ids present" true
    (List.for_all
       (fun id -> List.mem id ids)
       [ "fig3a"; "fig3b"; "tab2"; "tab3"; "tab4"; "eq9"; "valid"; "sp2";
         "fig5"; "fig6"; "fig7a"; "fig7b"; "fig8"; "fig9"; "fig10"; "fig11";
         "fig12"; "shmpi" ]);
  Alcotest.(check bool) "unknown id rejected" true
    (Harness.Experiments.find "nope" = None)

let test_cheap_experiments_nonempty () =
  List.iter
    (fun id ->
      match Harness.Experiments.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some f ->
          let tables =
            List.filter_map
              (function
                | Harness.Experiments.Table t -> Some t | Plot _ -> None)
              (f ())
          in
          Alcotest.(check bool) (id ^ " has tables") true (tables <> []);
          List.iter
            (fun (t : Harness.Table.t) ->
              Alcotest.(check bool) (id ^ " non-empty") true (t.rows <> []);
              List.iter
                (fun row ->
                  Alcotest.(check int)
                    (id ^ " row width")
                    (List.length t.headers) (List.length row))
                t.rows)
            tables)
    [ "tab3"; "tab4"; "sp2"; "fig5"; "fig7a"; "fig7b"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "memory"; "shape"; "sweeptimes" ]

let test_sim_backed_experiments_well_formed () =
  (* The simulation-backed experiments are slower; check a representative
     subset end-to-end (well-formed, non-empty tables). *)
  List.iter
    (fun id ->
      match Harness.Experiments.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some f ->
          List.iter
            (function
              | Harness.Experiments.Table (t : Harness.Table.t) ->
                  Alcotest.(check bool) (id ^ " rows") true (t.rows <> [])
              | Plot _ -> ())
            (f ()))
    [ "fig3a"; "fig3b"; "tab2"; "balance"; "simbreak"; "pipe" ]

let test_real_experiment_smoke () =
  (* The real-machine (OCaml domains) experiment end-to-end with few
     rounds: must produce both tables without raising. *)
  let tables = Harness.Exp_real.shmpi_tables ~rounds:10 () in
  Alcotest.(check int) "two tables" 2 (List.length tables);
  List.iter
    (fun (t : Harness.Table.t) ->
      Alcotest.(check bool) (t.id ^ " rows") true (t.rows <> []))
    tables

let test_scorecard_all_pass () =
  (* The machine-checkable reproduction scorecard: every headline claim of
     the paper must hold in this implementation. *)
  List.iter
    (fun (c : Harness.Exp_summary.claim) ->
      Alcotest.(check bool)
        (Fmt.str "%s: %s (%s)" c.id c.statement c.observed)
        true c.pass)
    (Harness.Exp_summary.claims ())

let suite =
  [
    ( "ext.metrics",
      [
        Alcotest.test_case "serial time" `Quick test_serial_time;
        Alcotest.test_case "speedup bounds" `Quick test_speedup_bounds;
        Alcotest.test_case "efficiency declines" `Quick
          test_efficiency_decreases;
        Alcotest.test_case "cores for target" `Quick test_cores_for_target;
        Alcotest.test_case "overheads sum" `Quick test_overheads_sum;
      ] );
    ( "ext.memory",
      [
        Alcotest.test_case "scales down with P" `Quick test_memory_scales_down;
        Alcotest.test_case "state term" `Quick test_memory_state_term;
        Alcotest.test_case "min cores for budget" `Quick test_min_cores_for;
      ] );
    ( "ext.model",
      [
        Alcotest.test_case "sweep times sum (r5)" `Quick test_sweep_times_sum;
        Alcotest.test_case "sync terms (SP/2 vs XT4)" `Quick test_sync_terms;
      ] );
    ( "ext.sim",
      [
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "zero noise = noiseless" `Quick
          test_noise_zero_is_noiseless;
        Alcotest.test_case "noise deterministic, slowing" `Quick
          test_noise_deterministic_and_slowing;
        Alcotest.test_case "noise validation" `Quick
          test_noise_amplitude_validated;
        Alcotest.test_case "balanced = uniform when divisible" `Quick
          test_balanced_divisible_matches_uniform;
        Alcotest.test_case "ragged blocks cost" `Quick
          test_balanced_ragged_slower;
        Alcotest.test_case "torus hops & latency" `Quick test_hops_and_latency;
        Alcotest.test_case "hop latency spares sweeps" `Quick
          test_hop_latency_spares_sweeps;
      ] );
    ( "ext.harness",
      [
        Alcotest.test_case "csv rendering" `Quick test_table_csv;
        Alcotest.test_case "experiment registry" `Quick
          test_experiment_registry;
        Alcotest.test_case "tables well-formed" `Quick
          test_cheap_experiments_nonempty;
        Alcotest.test_case "reproduction scorecard passes" `Slow
          test_scorecard_all_pass;
        Alcotest.test_case "sim-backed experiments well-formed" `Slow
          test_sim_backed_experiments_well_formed;
        Alcotest.test_case "real-machine experiment smoke" `Slow
          test_real_experiment_smoke;
      ] );
  ]
