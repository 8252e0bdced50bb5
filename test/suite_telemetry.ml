(* Tests for the serving-path telemetry: the calibrated allocation
   harness (a truly allocation-free closure measures exactly 0.0, which
   is what lets these tests pin with [=] rather than a tolerance), the
   zero-allocation contract of the closed-form evaluator and the batched
   engine's steady-state step, the evaluator's bit-identity with a
   literal transcription of (r1a)-(r5), and the run ledger's JSONL round
   trip and cross-run comparison. *)

open Wavefront_core

(* --- Obs.Runtime.measure_alloc --- *)

(* In-place float-array arithmetic is the allocation-free baseline under
   classic ocamlopt: stores unbox, reads of stored fields reuse boxes. *)
let test_alloc_zero_closure () =
  let acc = [| 0.0 |] in
  let a =
    Obs.Runtime.measure_alloc ~iterations:500 (fun () ->
        acc.(0) <- acc.(0) +. 1.0)
  in
  Alcotest.(check (float 0.0)) "calibrated to exactly zero" 0.0
    a.minor_words_per_iter;
  Alcotest.(check int) "iterations recorded" 500 a.iterations

let test_alloc_counts_boxing () =
  let a =
    Obs.Runtime.measure_alloc ~iterations:500 (fun () ->
        ignore (Sys.opaque_identity (ref (Sys.opaque_identity 0))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "allocating closure measured %.1f words/iter"
       a.minor_words_per_iter)
    true
    (a.minor_words_per_iter >= 2.0)

(* --- Plugplay.Eval: the allocation-free closed-form evaluator --- *)

(* [Eval.run] evaluates rows 2..rows in blocks of four and the rows
   left over one at a time; these grids leave every remainder: 16x16,
   8x8 and 32x32 leave 3 rows, 9x5 none, 683x6 one and 10x7 two. *)
let eval_cases =
  [
    ("sweep3d p256", Apps.Sweep3d.params (Wgrid.Data_grid.cube 64), 256, 2);
    ("lu p64", Apps.Lu.params (Wgrid.Data_grid.cube 48), 64, 4);
    ("chimaera p1024", Apps.Chimaera.params (Wgrid.Data_grid.cube 96), 1024, 2);
    ("lu p45", Apps.Lu.params (Wgrid.Data_grid.cube 48), 45, 4);
    ("sweep3d p4098", Apps.Sweep3d.params (Wgrid.Data_grid.cube 256), 4098, 2);
    ("chimaera p70", Apps.Chimaera.params (Wgrid.Data_grid.cube 96), 70, 8);
  ]

let cfg_of ~cores ~cpn =
  let platform = Loggp.Params.with_cores_per_node Loggp.Params.xt4 cpn in
  Plugplay.config ~cmp:(Wgrid.Cmp.of_cores_per_node cpn) platform ~cores

(* A random model configuration: a preset or synthetic application on a
   random data grid; processor grids from 1x1 through 1xn and nx1 strips
   to 40x40; every node rectangle [Cmp.of_cores_per_node] builds for the
   core counts below; the four platforms; bus and sync terms on and
   off. *)
let gen_model_config =
  let open QCheck.Gen in
  let* nx = int_range 1 300 and* ny = int_range 1 300 and* nz = int_range 1 300 in
  let grid = Wgrid.Data_grid.v ~nx ~ny ~nz in
  let preset =
    let* params =
      oneofl
        [
          (fun g -> Apps.Sweep3d.params g);
          (fun g -> Apps.Lu.params g);
          (fun g -> Apps.Chimaera.params g);
        ]
    and* htile = float_range 0.25 12.0 in
    return (App_params.with_htile (params grid) htile)
  in
  let synthetic =
    let* wg = float_range 0.001 5.0
    and* wg_pre = oneof [ return 0.0; float_range 0.0 2.0 ]
    and* htile = float_range 0.25 12.0
    and* ew = float_range 1.0 64.0
    and* ns = float_range 1.0 64.0
    and* schedule =
      oneof
        [
          oneofl Sweeps.Schedule.[ lu; sweep3d; chimaera ];
          (let* nsweeps = int_range 1 8 in
           let* nfull = int_range 1 nsweeps in
           let* ndiag = int_range 0 (nsweeps - nfull) in
           return (Sweeps.Schedule.make ~nsweeps ~nfull ~ndiag));
        ]
    and* nonwavefront =
      oneof
        [
          return App_params.No_op;
          map (fun t -> App_params.Fixed t) (float_range 0.0 1000.0);
          map2
            (fun count msg_size -> App_params.Allreduce { count; msg_size })
            (int_range 1 3) (int_range 8 4096);
          map2
            (fun wg_stencil halo_bytes_per_cell ->
              App_params.Stencil { wg_stencil; halo_bytes_per_cell })
            (float_range 0.01 1.0) (float_range 1.0 64.0);
        ]
    in
    return
      (App_params.v ~wg_pre ~nonwavefront ~name:"synthetic" ~grid ~wg ~htile
         ~schedule ~bytes_per_cell_ew:ew ~bytes_per_cell_ns:ns ())
  in
  let side = oneof [ return 1; int_range 1 6; int_range 1 40 ] in
  let* app = oneof [ preset; synthetic ]
  and* cols = side
  and* rows = side
  and* cpn = oneofl [ 1; 2; 3; 4; 6; 8; 16 ]
  and* platform = oneofl Loggp.Params.presets
  and* contention = bool
  and* sync_terms = bool in
  let cfg =
    Plugplay.config
      ~cmp:(Wgrid.Cmp.of_cores_per_node cpn)
      ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
      ~contention ~sync_terms
      (Loggp.Params.with_cores_per_node platform cpn)
      ~cores:(cols * rows)
  in
  return (app, cfg)

let print_model_config ((app : App_params.t), (cfg : Plugplay.config)) =
  Fmt.str "%s %a htile=%g on %a, %a, %s, contention=%b sync=%b" app.name
    Wgrid.Data_grid.pp app.grid app.htile Wgrid.Proc_grid.pp cfg.pgrid
    Wgrid.Cmp.pp cfg.cmp cfg.platform.Loggp.Params.name cfg.contention
    cfg.sync_terms

(* [Plugplay.iteration] (which is [Eval]) equals the cell-by-cell
   transcription of the equations in [Plugplay_ref] to the last bit:
   same additions in the same order, so not one ulp of drift. *)
let prop_iteration_matches_reference =
  QCheck.Test.make ~name:"iteration = literal (r1)-(r5) reference, bit for bit"
    ~count:2000
    (QCheck.make ~print:print_model_config gen_model_config)
    (fun (app, cfg) ->
      let r = Plugplay.iteration app cfg in
      let ref_ = Plugplay_ref.iteration app cfg in
      let same name a b =
        Int64.bits_of_float a = Int64.bits_of_float b
        || QCheck.Test.fail_reportf "%s: Eval %h, reference %h" name a b
      in
      same "t_diagfill" r.t_diagfill ref_.t_diagfill
      && same "t_fullfill" r.t_fullfill ref_.t_fullfill
      && same "t_stack" r.t_stack ref_.t_stack
      && same "t_iteration" r.t_iteration ref_.t_iteration)

(* The same bit-identity on fixed grids: every shape up to 9x9 (grids
   narrower than a block, exactly four columns wide, and every number of
   rows left over after the four-row blocks) at 1, 2, 4 and 8 cores per
   node, a square 256x256 grid and the wide, short 683x6 one. *)
let test_eval_grids_match_reference () =
  let check app ~cols ~rows ~cpn =
    let cfg =
      Plugplay.config
        ~cmp:(Wgrid.Cmp.of_cores_per_node cpn)
        ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
        (Loggp.Params.with_cores_per_node Loggp.Params.xt4 cpn)
        ~cores:(cols * rows)
    in
    let r = Plugplay.iteration app cfg and ref_ = Plugplay_ref.iteration app cfg in
    let same name a b =
      Alcotest.(check int64)
        (Printf.sprintf "%s %dx%d, %d cores/node: %s" app.App_params.name cols
           rows cpn name)
        (Int64.bits_of_float b) (Int64.bits_of_float a)
    in
    same "t_diagfill" r.t_diagfill ref_.t_diagfill;
    same "t_fullfill" r.t_fullfill ref_.t_fullfill;
    same "t_iteration" r.t_iteration ref_.t_iteration
  in
  let sweep3d = Apps.Sweep3d.params (Wgrid.Data_grid.cube 64) in
  let lu = Apps.Lu.params (Wgrid.Data_grid.cube 48) in
  List.iter
    (fun cpn ->
      for cols = 1 to 9 do
        for rows = 1 to 9 do
          check sweep3d ~cols ~rows ~cpn;
          check lu ~cols ~rows ~cpn
        done
      done)
    [ 1; 2; 4; 8 ];
  let big = Apps.Sweep3d.params (Wgrid.Data_grid.cube 256) in
  check big ~cols:256 ~rows:256 ~cpn:2;
  check big ~cols:683 ~rows:6 ~cpn:2

(* The accessors read the same run [result] reports. *)
let test_eval_accessors () =
  List.iter
    (fun (name, app, cores, cpn) ->
      let e = Plugplay.Eval.create app (cfg_of ~cores ~cpn) in
      Plugplay.Eval.run e;
      let r = Plugplay.Eval.result e in
      Alcotest.(check (float 0.0)) (name ^ ": t_iteration") r.t_iteration
        (Plugplay.Eval.t_iteration e);
      Alcotest.(check (float 0.0)) (name ^ ": t_diagfill") r.t_diagfill
        (Plugplay.Eval.t_diagfill e);
      Alcotest.(check (float 0.0)) (name ^ ": t_fullfill") r.t_fullfill
        (Plugplay.Eval.t_fullfill e))
    eval_cases

(* Repeated runs of one evaluator stay stable (the scratch really is
   reset, not accumulated into). *)
let test_eval_rerun_stable () =
  let _, app, cores, cpn = List.hd eval_cases in
  let cfg = cfg_of ~cores ~cpn in
  let e = Plugplay.Eval.create app cfg in
  Plugplay.Eval.run e;
  let first = Plugplay.Eval.t_iteration e in
  for _ = 1 to 10 do
    Plugplay.Eval.run e
  done;
  Alcotest.(check (float 0.0)) "10 reruns identical" first
    (Plugplay.Eval.t_iteration e)

(* The serving contract: exactly 0 minor words per evaluation, pinned
   with [=] — the CLI gate (`wavefront telemetry --assert-zero-alloc`)
   enforces the same number, this is its in-tree twin. *)
let test_eval_zero_alloc () =
  List.iter
    (fun (name, app, cores, cpn) ->
      let cfg = cfg_of ~cores ~cpn in
      let e = Plugplay.Eval.create app cfg in
      let a =
        Obs.Runtime.measure_alloc ~iterations:300 (fun () ->
            Plugplay.Eval.run e)
      in
      Alcotest.(check (float 0.0))
        (name ^ ": Eval.run allocates 0 minor words")
        0.0 a.minor_words_per_iter)
    eval_cases

(* --- Batched.Steady: the engine's steady-state unit of work --- *)

let steady_probe () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  let pg = Wgrid.Proc_grid.of_cores 64 in
  let costs =
    Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
      Loggp.Params.xt4 pg app
  in
  Wrun.Batched.Steady.probe ~costs pg app

let test_steady_step_zero_alloc () =
  let p = steady_probe () in
  let a =
    Obs.Runtime.measure_alloc ~iterations:1000 (fun () ->
        Wrun.Batched.Steady.step p)
  in
  Alcotest.(check (float 0.0)) "Steady.step allocates 0 minor words" 0.0
    a.minor_words_per_iter

(* The step is not a no-op: the probe rank's virtual clock strictly
   increases and its message count grows by the four tile-loop
   transfers, every step. *)
let test_steady_step_advances () =
  let p = steady_probe () in
  let before_msgs = Wrun.Batched.Steady.messages p in
  let last = ref (Wrun.Batched.Steady.clock p) in
  for i = 1 to 50 do
    Wrun.Batched.Steady.step p;
    let now = Wrun.Batched.Steady.clock p in
    Alcotest.(check bool)
      (Printf.sprintf "clock strictly increased at step %d" i)
      true (now > !last);
    last := now
  done;
  Alcotest.(check int) "4 messages per step (2 recv + 2 send)"
    (before_msgs + 200)
    (Wrun.Batched.Steady.messages p)

let test_steady_probe_needs_3x3 () =
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 16) in
  let pg = Wgrid.Proc_grid.v ~cols:2 ~rows:2 in
  let costs =
    Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
      Loggp.Params.xt4 pg app
  in
  Alcotest.check_raises "2x2 grid rejected"
    (Invalid_argument "Batched.Steady.probe: the grid must be at least 3x3")
    (fun () -> ignore (Wrun.Batched.Steady.probe ~costs pg app))

(* --- Obs.Ledger: JSONL round trip --- *)

let record ?(metrics = [ ("per_iteration", 14175.25); ("completed", 1.0) ])
    ?(duration_s = 0.25) () =
  Obs.Ledger.v ~engine:"batched" ~config_hash:"abcdef012345"
    ~spec_digest:"d41d8cd98f00b204e9800998ecf8427e" ~git:"ef44fa2-dirty"
    ~metrics
    ~runtime:[ ("runtime.minor_words", 1234.0); ("runtime.wall_s", 0.25) ]
    ~timestamp:1754732000.5 ~duration_s "simulate"

let test_ledger_json_roundtrip () =
  let r = record () in
  let line = Obs.Ledger.to_json_line r in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match Obs.Ledger.of_json_line line with
  | Error m -> Alcotest.fail ("round trip failed: " ^ m)
  | Ok r' ->
      Alcotest.(check string) "subcommand" r.subcommand r'.subcommand;
      Alcotest.(check string) "engine" r.engine r'.engine;
      Alcotest.(check string) "config_hash" r.config_hash r'.config_hash;
      Alcotest.(check string) "spec_digest" r.spec_digest r'.spec_digest;
      Alcotest.(check string) "git" r.git r'.git;
      Alcotest.(check (float 0.0)) "timestamp" r.timestamp r'.timestamp;
      Alcotest.(check (float 0.0)) "duration" r.duration_s r'.duration_s;
      Alcotest.(check (list (pair string (float 0.0)))) "metrics" r.metrics
        r'.metrics;
      Alcotest.(check (list (pair string (float 0.0)))) "runtime" r.runtime
        r'.runtime

let with_temp_ledger f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wavefront-ledger-test-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_ledger_append_load () =
  with_temp_ledger @@ fun path ->
  (* A missing ledger reads as empty, not as an error. *)
  (match Obs.Ledger.load ~path () with
  | Ok ([], 0) -> ()
  | Ok _ -> Alcotest.fail "missing ledger not empty"
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.append ~path (record ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.append ~path (record ~duration_s:0.5 ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* A corrupt line is skipped and counted, never fatal. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n";
  close_out oc;
  match Obs.Ledger.load ~path () with
  | Error m -> Alcotest.fail m
  | Ok (records, skipped) ->
      Alcotest.(check int) "two records survive" 2 (List.length records);
      Alcotest.(check int) "one line skipped" 1 skipped;
      Alcotest.(check (float 0.0)) "order preserved" 0.5
        (List.nth records 1).Obs.Ledger.duration_s

(* --- Obs.Ledger.compare_runs --- *)

let test_compare_identical_clean () =
  let diffs = Obs.Ledger.compare_runs (record ()) (record ()) in
  Alcotest.(check (list string)) "no regressions" []
    (List.map
       (fun (d : Obs.Ledger.diff) -> d.name)
       (Obs.Ledger.regressions diffs));
  List.iter
    (fun (d : Obs.Ledger.diff) ->
      Alcotest.(check bool) (d.name ^ " unchanged") true
        (d.verdict = Obs.Ledger.Unchanged))
    diffs

let test_compare_flags_regression () =
  (* per_iteration up 10% regresses (lower is better); completed down
     regresses (the one higher-is-better family); both beyond the 5%
     default threshold. *)
  let base = record () in
  let slow =
    record ~metrics:[ ("per_iteration", 15592.775); ("completed", 0.0) ] ()
  in
  let diffs = Obs.Ledger.compare_runs base slow in
  let verdict name =
    match List.find_opt (fun (d : Obs.Ledger.diff) -> d.name = name) diffs with
    | Some d -> d.verdict
    | None -> Alcotest.fail (name ^ " missing from diff")
  in
  Alcotest.(check bool) "slower per_iteration regresses" true
    (verdict "per_iteration" = Obs.Ledger.Regression);
  Alcotest.(check bool) "lost completion regresses" true
    (verdict "completed" = Obs.Ledger.Regression);
  Alcotest.(check int) "both flagged" 2
    (List.length (Obs.Ledger.regressions diffs));
  (* The same delta in the other direction is an improvement, and a
     sub-threshold move stays unchanged. *)
  let diffs' = Obs.Ledger.compare_runs slow base in
  Alcotest.(check bool) "faster per_iteration improves" true
    ((List.find (fun (d : Obs.Ledger.diff) -> d.name = "per_iteration") diffs')
       .verdict = Obs.Ledger.Improvement);
  let tiny =
    record ~metrics:[ ("per_iteration", 14316.0); ("completed", 1.0) ] ()
  in
  Alcotest.(check int) "a 1% move is noise" 0
    (List.length (Obs.Ledger.regressions (Obs.Ledger.compare_runs base tiny)))

let test_compare_one_sided_metrics () =
  let base = record ~metrics:[ ("per_iteration", 100.0) ] () in
  let current = record ~metrics:[ ("events", 42.0) ] () in
  let diffs = Obs.Ledger.compare_runs base current in
  let verdict name =
    (List.find (fun (d : Obs.Ledger.diff) -> d.name = name) diffs).verdict
  in
  Alcotest.(check bool) "metric only in base" true
    (verdict "per_iteration" = Obs.Ledger.Only_base);
  Alcotest.(check bool) "metric only in current" true
    (verdict "events" = Obs.Ledger.Only_current);
  Alcotest.(check int) "one-sided metrics are not regressions" 0
    (List.length (Obs.Ledger.regressions diffs))

let suite =
  [
    ( "telemetry.alloc",
      [
        Alcotest.test_case "zero closure measures exactly 0" `Quick
          test_alloc_zero_closure;
        Alcotest.test_case "boxing closure measured" `Quick
          test_alloc_counts_boxing;
      ] );
    ( "telemetry.eval",
      [
        QCheck_alcotest.to_alcotest prop_iteration_matches_reference;
        Alcotest.test_case "every grid to 9x9, 256x256, 683x6 = reference"
          `Quick test_eval_grids_match_reference;
        Alcotest.test_case "accessors agree with result" `Quick
          test_eval_accessors;
        Alcotest.test_case "rerun stability" `Quick test_eval_rerun_stable;
        Alcotest.test_case "zero-alloc contract" `Quick test_eval_zero_alloc;
      ] );
    ( "telemetry.steady",
      [
        Alcotest.test_case "step zero-alloc contract" `Quick
          test_steady_step_zero_alloc;
        Alcotest.test_case "clock advances, messages count" `Quick
          test_steady_step_advances;
        Alcotest.test_case "probe needs a 3x3 grid" `Quick
          test_steady_probe_needs_3x3;
      ] );
    ( "telemetry.ledger",
      [
        Alcotest.test_case "JSONL round trip" `Quick
          test_ledger_json_roundtrip;
        Alcotest.test_case "append / load / corrupt line" `Quick
          test_ledger_append_load;
        Alcotest.test_case "identical runs clean" `Quick
          test_compare_identical_clean;
        Alcotest.test_case "synthetic regression flagged" `Quick
          test_compare_flags_regression;
        Alcotest.test_case "one-sided metrics" `Quick
          test_compare_one_sided_metrics;
      ] );
  ]
