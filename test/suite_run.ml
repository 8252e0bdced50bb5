(* Tests for the substrate-agnostic execution core (Wrun): the one Figure-4
   program against its three backends.

   The load-bearing property is cross-substrate agreement: the event-level
   simulator and the reference dataflow backend, executing the same
   Program.config, must produce identical per-rank message sequences — a
   differential oracle over random grids, schedules and tile heights. The
   dataflow backend additionally serves as a deadlock detector, which a
   deliberately broken communication order must trip. *)

open Wgrid

(* --- Recording harnesses: the same program on two substrates --- *)

module Sim_rec = Record.Wrap (Xtsim.Wavefront_sim.Backend.Substrate)
module Df_rec = Record.Wrap (Wrun.Dataflow.Substrate)

let sim_events pg app =
  let cores = Proc_grid.cores pg in
  let machine = Xtsim.Machine.v ~cmp:Wgrid.Cmp.single_core Loggp.Params.xt4 pg in
  let engine = Xtsim.Engine.create () in
  let b = Xtsim.Wavefront_sim.Backend.create engine machine app in
  let cfg = Wrun.Program.of_app pg app in
  let recs = Record.create ~ranks:cores in
  for rank = 0 to cores - 1 do
    Xtsim.Engine.spawn engine (fun () ->
        Wrun.Program.run_rank (module Sim_rec) (recs, b) cfg rank)
  done;
  ignore (Xtsim.Engine.run engine);
  Array.init cores (Record.events recs)

let dataflow_events ?perturb pg app =
  let cores = Proc_grid.cores pg in
  let t = Wrun.Dataflow.of_app ?perturb pg app in
  let cfg = Wrun.Program.of_app pg app in
  let recs = Record.create ~ranks:cores in
  Wrun.Dataflow.exec t (fun rank ->
      Wrun.Program.run_rank (module Df_rec) (recs, t) cfg rank);
  let o = Wrun.Dataflow.outcome t in
  if not o.completed then Alcotest.fail "dataflow backend deadlocked";
  if o.mismatches <> [] then
    Alcotest.fail ("dataflow mismatch: " ^ List.hd o.mismatches);
  Array.init cores (Record.events recs)

let schedules =
  [ Sweeps.Schedule.sweep3d; Sweeps.Schedule.lu; Sweeps.Schedule.chimaera ]

let nonwavefronts : Wavefront_core.App_params.nonwavefront list =
  [
    No_op;
    Fixed 3.0;
    Allreduce { count = 2; msg_size = 16 };
    Stencil { wg_stencil = 0.01; halo_bytes_per_cell = 24.0 };
  ]

let app_gen =
  QCheck.Gen.(
    map
      (fun (((cols, rows), (nz, htile)), (sched, nwf)) ->
        let grid = Data_grid.v ~nx:(2 * cols) ~ny:(2 * rows) ~nz in
        let app =
          Apps.Custom.params ~name:"qcheck" ~schedule:(List.nth schedules sched)
            ~htile ~nonwavefront:(List.nth nonwavefronts nwf) ~wg:1.0 grid
        in
        ((cols, rows), app))
      (pair
         (pair (pair (int_range 1 4) (int_range 1 4))
            (pair (int_range 1 8) (float_range 0.5 4.0)))
         (pair (int_range 0 2) (int_range 0 3))))

let pp_app_case ((cols, rows), (app : Wavefront_core.App_params.t)) =
  Fmt.str "%dx%d %a htile=%.2f %s" cols rows Data_grid.pp app.grid app.htile
    app.name

let prop_sim_vs_dataflow_sequences =
  QCheck.Test.make ~name:"xtsim and dataflow emit identical message sequences"
    ~count:40
    (QCheck.make ~print:pp_app_case app_gen)
    (fun ((cols, rows), app) ->
      let pg = Proc_grid.v ~cols ~rows in
      sim_events pg app = dataflow_events pg app)

(* Spot-check one sequence shape so the oracle itself is anchored: LU on a
   2x1 grid is a forward sweep (rank 0 sends x-faces east) then a backward
   one (rank 1 sends them west), one message per tile each way. *)
let test_sequence_shape () =
  let grid = Data_grid.v ~nx:4 ~ny:2 ~nz:2 in
  let app =
    Apps.Custom.params ~name:"shape" ~schedule:Sweeps.Schedule.lu ~htile:1.0
      ~nonwavefront:No_op ~wg:1.0 grid
  in
  let pg = Proc_grid.v ~cols:2 ~rows:1 in
  let ev = dataflow_events pg app in
  let is_send = function Record.Send _ -> true | _ -> false in
  let is_recv = function Record.Recv _ -> true | _ -> false in
  Array.iteri
    (fun rank events ->
      Alcotest.(check int)
        (Fmt.str "rank%d sends" rank)
        2
        (List.length (List.filter is_send events));
      Alcotest.(check int)
        (Fmt.str "rank%d recvs" rank)
        2
        (List.length (List.filter is_recv events)))
    ev

(* --- The dataflow backend as a deadlock detector --- *)

let test_dataflow_validates_app () =
  let pg = Proc_grid.v ~cols:8 ~rows:8 in
  let app = Apps.Sweep3d.params (Data_grid.v ~nx:16 ~ny:16 ~nz:4) in
  let o = Wrun.Dataflow.run ~iterations:2 pg app in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check (list string)) "no mismatches" [] o.mismatches;
  Alcotest.(check bool) "messages flowed" true (o.messages > 0)

(* A deliberately broken communication order: both ranks receive before
   either sends — the classic head-to-head deadlock the validator exists to
   catch. *)
let test_dataflow_detects_deadlock () =
  let s = Wrun.Dataflow.Raw.create ~ranks:2 in
  let m : Wrun.Dataflow.msg = { axis = X; tile = 0; bytes = 8 } in
  Wrun.Dataflow.Raw.exec s (fun rank ->
      let peer = 1 - rank in
      ignore (Wrun.Dataflow.Raw.recv s ~rank ~src:peer);
      Wrun.Dataflow.Raw.send s ~src:rank ~dst:peer m);
  let o = Wrun.Dataflow.Raw.outcome s in
  Alcotest.(check bool) "not completed" false o.completed;
  Alcotest.(check int) "both ranks stuck" 2 (List.length o.blocked);
  match o.blocked with
  | (0, why) :: _ ->
      Alcotest.(check bool) "says what it waits on" true
        (String.length why > 0)
  | _ -> Alcotest.fail "expected rank 0 first"

(* A schedule whose sweeps disagree across ranks deadlocks rather than
   silently mis-pairing: rank 0 runs sweeps in one order, rank 1 in the
   reverse, so each blocks on a face the other has not produced. *)
let test_dataflow_detects_skewed_schedule () =
  let s = Wrun.Dataflow.Raw.create ~ranks:2 in
  let msg tile : Wrun.Dataflow.msg = { axis = X; tile; bytes = 8 } in
  Wrun.Dataflow.Raw.exec s (fun rank ->
      if rank = 0 then begin
        (* Sweep A flows 0 -> 1, sweep B flows 1 -> 0; rank 1 runs B first. *)
        Wrun.Dataflow.Raw.send s ~src:0 ~dst:1 (msg 0);
        ignore (Wrun.Dataflow.Raw.recv s ~rank:0 ~src:1);
        Wrun.Dataflow.Raw.barrier s ~rank:0
      end
      else begin
        ignore (Wrun.Dataflow.Raw.recv s ~rank:1 ~src:0);
        Wrun.Dataflow.Raw.send s ~src:1 ~dst:0 (msg 1);
        Wrun.Dataflow.Raw.barrier s ~rank:1;
        (* An extra un-matched receive: the broken tail. *)
        ignore (Wrun.Dataflow.Raw.recv s ~rank:1 ~src:0)
      end);
  let o = Wrun.Dataflow.Raw.outcome s in
  Alcotest.(check bool) "not completed" false o.completed;
  Alcotest.(check int) "one rank stuck" 1 (List.length o.blocked)

(* The recv-side oracle: a sender shipping the wrong face description is
   reported, not absorbed. *)
let test_dataflow_reports_mismatch () =
  let t = Wrun.Dataflow.create ~ranks:2 ~msg_ew:8 ~msg_ns:8 () in
  Wrun.Dataflow.exec t (fun rank ->
      if rank = 0 then
        Wrun.Dataflow.Substrate.send t ~rank:0 ~dst:1 ~axis:X ~tile:0
          { axis = X; tile = 5; bytes = 8 }
      else
        ignore
          (Wrun.Dataflow.Substrate.recv t ~rank:1 ~src:0 ~axis:X ~tile:0 ~h:1
             ~bytes:8));
  let o = Wrun.Dataflow.outcome t in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check int) "one mismatch" 1 (List.length o.mismatches)

(* --- Perturbation on the clockless backend --- *)

(* A spec-killed rank must leave a decodable crime scene: the outcome names
   it, lists who is stuck waiting on it, and counts the messages its peers
   sent that nobody will ever receive. *)
let test_dataflow_flags_orphans () =
  let pg = Proc_grid.v ~cols:2 ~rows:2 in
  let app = Apps.Sweep3d.params (Data_grid.v ~nx:8 ~ny:8 ~nz:4) in
  let spec = Perturb.Spec.v ~failures:[ { rank = 1; after_tiles = 2 } ] () in
  let o = Wrun.Dataflow.run ~perturb:spec pg app in
  Alcotest.(check bool) "not completed" false o.completed;
  Alcotest.(check (list int)) "killed rank reported" [ 1 ] o.failed;
  Alcotest.(check bool) "peers stuck on the dead rank" true (o.blocked <> []);
  Alcotest.(check bool) "orphaned sends flagged" true (o.orphaned > 0)

(* Straggler ordering is a scheduling perturbation, not a semantic one:
   with every straggler's tasks deferred to last, the precedence graph must
   still complete, with no orphans and the exact same per-rank message
   sequences. *)
let test_dataflow_straggler_completes () =
  let pg = Proc_grid.v ~cols:2 ~rows:2 in
  let app = Apps.Sweep3d.params (Data_grid.v ~nx:8 ~ny:8 ~nz:4) in
  let spec =
    Perturb.Spec.v
      ~stragglers:[ { rank = 0; delay = 10.0 }; { rank = 3; delay = 5.0 } ]
      ()
  in
  let o = Wrun.Dataflow.run ~perturb:spec pg app in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check int) "no orphans" 0 o.orphaned;
  Alcotest.(check bool) "identical sequences" true
    (dataflow_events pg app = dataflow_events ~perturb:spec pg app)

let straggler_spec_of_bits ~cores bits =
  let stragglers =
    List.filteri (fun r _ -> r < cores && (bits lsr r) land 1 = 1)
      (List.init 16 (fun r -> { Perturb.Spec.rank = r; delay = 1.0 }))
  in
  Perturb.Spec.v ~stragglers ()

let prop_dataflow_straggler_sequences =
  QCheck.Test.make
    ~name:"dataflow under straggler ordering emits identical sequences"
    ~count:25
    (QCheck.make
       ~print:(fun (c, bits) -> Fmt.str "%s stragglers=%#x" (pp_app_case c) bits)
       QCheck.Gen.(pair app_gen (int_bound 0xFFFF)))
    (fun (((cols, rows), app), bits) ->
      let pg = Proc_grid.v ~cols ~rows in
      let spec = straggler_spec_of_bits ~cores:(cols * rows) bits in
      dataflow_events pg app = dataflow_events ~perturb:spec pg app)

(* --- Program tiling --- *)

let test_tiling_covers_stack () =
  List.iter
    (fun (nz, htile) ->
      let t = Wrun.Program.tiling ~nz ~htile in
      let total = ref 0 in
      for i = 0 to t.ntiles - 1 do
        let h = t.h_of i in
        (* Fractional Htile can leave a zero-height trailing tile — the
           model counts ceil(nz/htile) tiles — but never a negative one. *)
        Alcotest.(check bool) "tile height sane" true (h >= 0);
        total := !total + h
      done;
      Alcotest.(check int)
        (Fmt.str "nz=%d htile=%g covers" nz htile)
        nz !total)
    [ (1, 1.0); (7, 2.0); (8, 2.5); (960, 53.33); (5, 10.0) ]

let test_tiling_int_matches_integral () =
  List.iter
    (fun (nz, htile) ->
      let a = Wrun.Program.tiling ~nz ~htile:(float_of_int htile) in
      let b = Wrun.Program.tiling_int ~nz ~htile in
      Alcotest.(check int) "ntiles" b.ntiles a.ntiles;
      for i = 0 to a.ntiles - 1 do
        Alcotest.(check int) (Fmt.str "tile %d" i) (b.h_of i) (a.h_of i)
      done)
    [ (1, 1); (7, 2); (8, 4); (9, 4); (100, 7) ]

(* --- The real (shmpi) backend through the core --- *)

(* The bitwise-equals-sequential guarantee must survive every non-wavefront
   epilogue the core can route to the real runtime. *)
let test_real_backend_nonwavefronts () =
  let grid = Data_grid.v ~nx:6 ~ny:5 ~nz:5 in
  let pg = Proc_grid.v ~cols:2 ~rows:2 in
  List.iter
    (fun nwf ->
      let plan =
        Kernels.Sweep_exec.plan ~htile:2 ~iterations:2 ~nonwavefront:nwf grid
          pg
      in
      let out = Kernels.Sweep_exec.run plan in
      Alcotest.(check bool)
        (Fmt.str "bitwise with %s"
           (match (nwf : Wavefront_core.App_params.nonwavefront) with
           | No_op -> "no_op"
           | Fixed _ -> "fixed"
           | Allreduce _ -> "allreduce"
           | Stencil _ -> "stencil"))
        true
        (Kernels.Sweep_exec.gather plan out.blocks
        = Kernels.Sweep_exec.run_sequential plan))
    [
      Wavefront_core.App_params.No_op;
      Fixed 1.0;
      Allreduce { count = 2; msg_size = 64 };
      Stencil { wg_stencil = 0.001; halo_bytes_per_cell = 16.0 };
    ]

let prop_real_backend_random_nonwavefront =
  QCheck.Test.make ~name:"real backend stays bitwise under random plans"
    ~count:12
    QCheck.(
      make
        Gen.(
          pair
            (pair (int_range 1 3) (int_range 1 3))
            (pair (int_range 1 4) (int_range 0 3))))
    (fun ((cols, rows), (htile, nwf)) ->
      let grid = Data_grid.v ~nx:(cols * 2) ~ny:(rows * 2) ~nz:5 in
      let pg = Proc_grid.v ~cols ~rows in
      let plan =
        Kernels.Sweep_exec.plan ~htile
          ~nonwavefront:(List.nth nonwavefronts nwf)
          ~schedule:Sweeps.Schedule.chimaera grid pg
      in
      let out = Kernels.Sweep_exec.run plan in
      Kernels.Sweep_exec.gather plan out.blocks
      = Kernels.Sweep_exec.run_sequential plan)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sim_vs_dataflow_sequences;
      prop_real_backend_random_nonwavefront;
      prop_dataflow_straggler_sequences;
    ]

let suite =
  [
    ( "run.differential",
      [
        Alcotest.test_case "sequence shape on 2x1" `Quick test_sequence_shape;
      ] );
    ( "run.dataflow",
      [
        Alcotest.test_case "validates a Table 3 app" `Quick
          test_dataflow_validates_app;
        Alcotest.test_case "detects head-to-head deadlock" `Quick
          test_dataflow_detects_deadlock;
        Alcotest.test_case "detects a skewed schedule" `Quick
          test_dataflow_detects_skewed_schedule;
        Alcotest.test_case "reports face mismatches" `Quick
          test_dataflow_reports_mismatch;
        Alcotest.test_case "flags orphaned sends on a killed rank" `Quick
          test_dataflow_flags_orphans;
        Alcotest.test_case "completes under straggler ordering" `Quick
          test_dataflow_straggler_completes;
      ] );
    ( "run.program",
      [
        Alcotest.test_case "tiling covers the stack" `Quick
          test_tiling_covers_stack;
        Alcotest.test_case "integer tiling matches integral Htile" `Quick
          test_tiling_int_matches_integral;
      ] );
    ( "run.real",
      [
        Alcotest.test_case "bitwise under every epilogue" `Quick
          test_real_backend_nonwavefronts;
      ] );
    ("run.properties", props);
  ]
