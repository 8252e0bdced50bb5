(* Tests for the checkpoint/rollback recovery layer: the closed-form
   model arithmetic (Perturb.Recover), the snapshot stores
   (Wrun.Checkpoint), the simulated protocol (xtsim and dataflow), the
   real runtime's checkpoint/restore/replay path, the channel message
   log, and the CLI exit-status discipline. *)

open Wgrid

(* --- The closed-form model --- *)

let test_due_and_checkpoints () =
  Alcotest.(check bool) "wave 0 never due" false
    (Perturb.Recover.due ~interval:4 ~wave:0);
  Alcotest.(check bool) "multiples due" true
    (Perturb.Recover.due ~interval:4 ~wave:8);
  Alcotest.(check bool) "others not due" false
    (Perturb.Recover.due ~interval:4 ~wave:9);
  Alcotest.(check bool) "disabled never due" false
    (Perturb.Recover.due ~interval:0 ~wave:8);
  (* Checkpoint waves among 0..waves-1 must equal the count the closed
     form charges for. *)
  List.iter
    (fun (interval, waves) ->
      let listed = ref 0 in
      for w = 0 to waves - 1 do
        if Perturb.Recover.due ~interval ~wave:w then incr listed
      done;
      Alcotest.(check int)
        (Fmt.str "count K=%d waves=%d" interval waves)
        !listed
        (Perturb.Recover.checkpoints ~interval ~waves))
    [ (1, 7); (3, 12); (4, 12); (5, 1); (7, 100); (100, 7) ]

let test_lost_waves () =
  let p = Perturb.Recover.v 5 in
  Alcotest.(check int) "at a checkpoint wave" 0
    (Perturb.Recover.lost_waves p ~fail_wave:10);
  Alcotest.(check int) "mid-interval" 3
    (Perturb.Recover.lost_waves p ~fail_wave:13);
  Alcotest.(check int) "before the first checkpoint" 4
    (Perturb.Recover.lost_waves p ~fail_wave:4);
  Alcotest.(check int) "disabled loses everything" 13
    (Perturb.Recover.lost_waves Perturb.Recover.disabled ~fail_wave:13)

let test_optimal_interval () =
  let opt = Perturb.Recover.optimal_interval in
  Alcotest.(check int) "no failures: never checkpoint" 64
    (opt ~waves:64 ~wave_cost:10.0 ~failures:0 ~ckpt_cost:5.0);
  Alcotest.(check int) "free checkpoints: every wave" 1
    (opt ~waves:64 ~wave_cost:10.0 ~failures:1 ~ckpt_cost:0.0);
  let k = opt ~waves:64 ~wave_cost:10.0 ~failures:1 ~ckpt_cost:5.0 in
  Alcotest.(check bool) "in range" true (k >= 1 && k <= 64);
  (* The optimum must actually (weakly) beat its neighbours under the
     expected-overhead objective it minimizes. *)
  let cost k =
    (Perturb.Recover.expected_term
       (Perturb.Recover.v ~ckpt_cost:5.0 k)
       ~waves:64 ~wave_cost:10.0 ~failures:1)
      .total
  in
  if k > 1 then
    Alcotest.(check bool) "beats k-1" true (cost k <= cost (k - 1) +. 1e-9);
  if k < 64 then
    Alcotest.(check bool) "beats k+1" true (cost k <= cost (k + 1) +. 1e-9)

let test_terms () =
  let p = Perturb.Recover.v ~ckpt_cost:50.0 ~restart_cost:500.0 10 in
  let t =
    Perturb.Recover.deterministic_term p ~waves:32 ~wave_cost:64.8
      ~fail_waves:[ 6 ]
  in
  (* 3 checkpoints (waves 10, 20, 30), one restart, 6 lost waves. *)
  Alcotest.(check (float 1e-9)) "checkpoint" 150.0 t.checkpoint;
  Alcotest.(check (float 1e-9)) "restart" 500.0 t.restart;
  Alcotest.(check (float 1e-9)) "rework" (6.0 *. 64.8) t.rework;
  Alcotest.(check (float 1e-9)) "total" (150.0 +. 500.0 +. 388.8) t.total;
  let z =
    Perturb.Recover.deterministic_term Perturb.Recover.disabled ~waves:32
      ~wave_cost:64.8 ~fail_waves:[ 6 ]
  in
  Alcotest.(check (float 0.0)) "disabled is free" 0.0 z.total

(* --- Snapshot stores --- *)

let snapshot ~rank ~version ~wave : Wrun.Checkpoint.snapshot =
  {
    rank;
    version;
    wave;
    position = { iteration = 1; sweep = 1; tile = 2 };
    phi = [| 1.5; -2.25; 3.125 |];
    zbuf = [| 0.5; 0.75 |];
    zpos = 4;
    sent = [| 0; 3; 1 |];
    recvd = [| 0; 2; 2 |];
  }

let test_memory_store () =
  let store = Wrun.Checkpoint.memory_store () in
  Alcotest.(check bool) "empty" true
    (Wrun.Checkpoint.latest store ~rank:0 = None);
  Wrun.Checkpoint.save store (snapshot ~rank:0 ~version:1 ~wave:4);
  Wrun.Checkpoint.save store (snapshot ~rank:0 ~version:2 ~wave:8);
  Wrun.Checkpoint.save store (snapshot ~rank:1 ~version:1 ~wave:4);
  (match Wrun.Checkpoint.latest store ~rank:0 with
  | Some s ->
      Alcotest.(check int) "latest version wins" 2 s.version;
      Alcotest.(check int) "wave" 8 s.wave
  | None -> Alcotest.fail "expected a snapshot");
  Alcotest.(check int) "saves counted" 3 (Wrun.Checkpoint.saves store)

let test_file_store_round_trip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "wavefront-ckpt-test"
  in
  let store = Wrun.Checkpoint.file_store ~dir in
  let snap = snapshot ~rank:3 ~version:7 ~wave:12 in
  Wrun.Checkpoint.save store snap;
  (match Wrun.Checkpoint.latest store ~rank:3 with
  | Some s -> Alcotest.(check bool) "bitwise round trip" true (s = snap)
  | None -> Alcotest.fail "expected a snapshot on disk");
  (* A fresh store over the same directory sees the file — recovery
     survives the process. *)
  let reopened = Wrun.Checkpoint.file_store ~dir in
  Alcotest.(check bool) "visible to a new store" true
    (Wrun.Checkpoint.latest reopened ~rank:3 = Some snap);
  Alcotest.(check bool) "other ranks empty" true
    (Wrun.Checkpoint.latest reopened ~rank:2 = None)

(* --- Simulated recovery: xtsim vs the closed form --- *)

let fixed_app = Apps.Sweep3d.params (Data_grid.v ~nx:24 ~ny:24 ~nz:8)
let fixed_pg = Proc_grid.v ~cols:4 ~rows:4

let fixed_cfg =
  Wavefront_core.Plugplay.config ~cmp:Cmp.single_core Loggp.Params.xt4
    ~cores:16

let machine_of pg = Xtsim.Machine.v ~cmp:Cmp.single_core Loggp.Params.xt4 pg

let test_sim_recovers () =
  let spec = Perturb.Spec.v ~failures:[ { rank = 5; after_tiles = 6 } ] () in
  let policy = Perturb.Recover.v ~ckpt_cost:50.0 ~restart_cost:500.0 10 in
  let killed =
    Xtsim.Wavefront_sim.run ~perturb:spec (machine_of fixed_pg) fixed_app
  in
  Alcotest.(check bool) "without recovery the run degrades" false
    killed.completed;
  let o =
    Xtsim.Wavefront_sim.run ~perturb:spec ~recover:policy
      (machine_of fixed_pg) fixed_app
  in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check (list int)) "rank revived" [ 5 ] o.recovered;
  let waves =
    Sweeps.Schedule.nsweeps fixed_app.schedule
    * Tile.ntiles_int ~nz:fixed_app.grid.nz ~htile:fixed_app.htile
  in
  Alcotest.(check int) "checkpoints = schedule x ranks"
    (16 * Perturb.Recover.checkpoints ~interval:10 ~waves)
    o.checkpoints

(* The tentpole contract: the simulator's recover.* spans must reproduce
   the closed-form term — checkpoint schedule, restart charge and
   rollback depth agree wave for wave (tolerance 5%, and in fact
   exactly). *)
let test_sim_matches_closed_form () =
  let spec = Perturb.Spec.v ~failures:[ { rank = 5; after_tiles = 6 } ] () in
  let policy = Perturb.Recover.v ~ckpt_cost:50.0 ~restart_cost:500.0 10 in
  let r =
    Harness.Recover_report.run ~policy fixed_cfg fixed_app spec
  in
  Alcotest.(check bool) "within tolerance" true r.within_tolerance;
  Alcotest.(check (float 1e-6)) "checkpoint term exact"
    r.predicted.checkpoint r.simulated.checkpoint;
  Alcotest.(check (float 1e-6)) "restart term exact" r.predicted.restart
    r.simulated.restart;
  Alcotest.(check (float 1e-6)) "rework term exact" r.predicted.rework
    r.simulated.rework;
  Alcotest.(check int) "clean exit" 0 (Harness.Recover_report.exit_status r)

let test_dataflow_recovers () =
  let spec = Perturb.Spec.v ~failures:[ { rank = 2; after_tiles = 3 } ] () in
  let policy = Perturb.Recover.v 4 in
  let base = Wrun.Dataflow.run ~perturb:spec fixed_pg fixed_app in
  Alcotest.(check bool) "without recovery: degraded" false base.completed;
  Alcotest.(check bool) "orphans without recovery" true (base.orphaned > 0);
  let o = Wrun.Dataflow.run ~perturb:spec ~recover:policy fixed_pg fixed_app in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check (list int)) "revived" [ 2 ] o.recovered;
  Alcotest.(check int) "no orphans once revived" 0 o.orphaned

(* --- Real runtime: pinned bitwise recovery --- *)

(* A failing rank restored from its snapshot must finish with the exact
   grid of the unfailed run: phi, the carried z-face and the replayed
   messages all line up, so the gathered result is bitwise-equal to the
   sequential reference. *)
let test_real_recovery_bitwise () =
  let plan =
    Kernels.Sweep_exec.plan ~htile:2
      ~perturb:(Perturb.Spec.v ~failures:[ { rank = 1; after_tiles = 2 } ] ())
      (Data_grid.v ~nx:6 ~ny:4 ~nz:4)
      (Proc_grid.v ~cols:2 ~rows:2)
  in
  let reference = Kernels.Sweep_exec.run_sequential plan in
  match
    Kernels.Sweep_exec.run_recoverable
      ~policy:(Perturb.Recover.v 2) plan
  with
  | Kernels.Sweep_exec.Recovered (o, stats) ->
      Alcotest.(check bool) "bitwise equal to the unfailed run" true
        (Kernels.Sweep_exec.gather plan o.blocks = reference);
      Alcotest.(check int) "one restart" 1 stats.restarts;
      Alcotest.(check bool) "snapshots were taken" true (stats.checkpoints > 0)
  | Unrecovered { failed; reason; _ } ->
      Alcotest.failf "unrecovered: ranks %a (%s)"
        Fmt.(Dump.list int)
        failed
        (Printexc.to_string reason)

(* A kill before the first checkpoint exercises the from-scratch respawn:
   no snapshot exists, the channels rewind to zero and the full logs
   replay. *)
let test_real_recovery_from_scratch () =
  let plan =
    Kernels.Sweep_exec.plan ~htile:2
      ~perturb:(Perturb.Spec.v ~failures:[ { rank = 3; after_tiles = 0 } ] ())
      (Data_grid.v ~nx:6 ~ny:4 ~nz:4)
      (Proc_grid.v ~cols:2 ~rows:2)
  in
  let reference = Kernels.Sweep_exec.run_sequential plan in
  match
    Kernels.Sweep_exec.run_recoverable
      ~policy:(Perturb.Recover.v 1000) plan
  with
  | Kernels.Sweep_exec.Recovered (o, stats) ->
      Alcotest.(check bool) "bitwise equal" true
        (Kernels.Sweep_exec.gather plan o.blocks = reference);
      Alcotest.(check int) "one restart" 1 stats.restarts
  | Unrecovered _ -> Alcotest.fail "expected recovery from scratch"

(* --- Channel message log + timeout regression --- *)

(* Satellite: a timed-out receive must leave the channel fully usable —
   nothing popped, nothing recycled into the pool — so a later payload
   arrives intact. *)
let test_channel_usable_after_timeout () =
  let c = Shmpi.Channel.create () in
  let buf = Array.make 2 0.0 in
  let v, waited = Shmpi.Channel.recv_into_deadline c buf ~timeout_us:200.0 in
  Alcotest.(check bool) "timed out" true (v = None);
  Alcotest.(check bool) "waited" true (waited > 0.0);
  Shmpi.Channel.send c [| 4.5; -1.25 |];
  (match Shmpi.Channel.recv_into_deadline c buf ~timeout_us:1e6 with
  | Some got, _ ->
      Alcotest.(check bool) "payload intact" true (got = [| 4.5; -1.25 |])
  | None, _ -> Alcotest.fail "payload lost after an earlier timeout");
  (* Same discipline on a logging channel, where pooling is forbidden
     outright (logged payloads alias delivered arrays). *)
  let l = Shmpi.Channel.create () in
  Shmpi.Channel.enable_log l;
  ignore (Shmpi.Channel.recv_into_deadline l buf ~timeout_us:200.0);
  Shmpi.Channel.send l [| 9.0; 8.0 |];
  (match Shmpi.Channel.recv_into_deadline l buf ~timeout_us:1e6 with
  | Some got, _ ->
      Alcotest.(check bool) "logged payload intact" true (got = [| 9.0; 8.0 |])
  | None, _ -> Alcotest.fail "payload lost on the logging channel");
  (* The log still holds the consumed payload: a rollback to mark 0
     redelivers it even though a send into the pool could have clobbered
     it. *)
  Shmpi.Channel.send l [| 1.0; 2.0 |];
  Shmpi.Channel.rewind_recv l ~to_:0;
  Alcotest.(check bool) "log redelivers the first payload" true
    (Shmpi.Channel.recv l = [| 9.0; 8.0 |]);
  Alcotest.(check bool) "then the second" true
    (Shmpi.Channel.recv l = [| 1.0; 2.0 |])

let test_channel_replay_suppression () =
  let c = Shmpi.Channel.create () in
  Shmpi.Channel.enable_log c;
  Shmpi.Channel.send c [| 1.0 |];
  Shmpi.Channel.send c [| 2.0 |];
  Alcotest.(check int) "two sends marked" 2 (Shmpi.Channel.sent_mark c);
  (* Respawned sender replays from mark 0: the duplicates must be
     swallowed, then a genuinely new send delivers. *)
  Shmpi.Channel.rewind_send c ~to_:0;
  Shmpi.Channel.send c [| 1.0 |];
  Shmpi.Channel.send c [| 2.0 |];
  Shmpi.Channel.send c [| 3.0 |];
  Alcotest.(check bool) "first" true (Shmpi.Channel.recv c = [| 1.0 |]);
  Alcotest.(check bool) "second" true (Shmpi.Channel.recv c = [| 2.0 |]);
  Alcotest.(check bool) "new send delivered once" true
    (Shmpi.Channel.recv c = [| 3.0 |]);
  Alcotest.(check bool) "nothing duplicated" true
    (Shmpi.Channel.try_recv c = None);
  (* Released marks refuse to rewind: the store and the release schedule
     disagreeing is a protocol bug worth failing loudly on. *)
  Shmpi.Channel.release c ~upto:2;
  Alcotest.check_raises "released mark"
    (Invalid_argument "Channel.rewind_recv: mark 1 already released (base 2)")
    (fun () -> Shmpi.Channel.rewind_recv c ~to_:1)

(* --- Parse errors carry clause and position --- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_spec_parse_error_location () =
  (match Perturb.Spec.of_string_loc "seed=42 link=bogus fail=1:3" with
  | Ok _ -> Alcotest.fail "accepted a bad clause"
  | Error e ->
      Alcotest.(check string) "clause" "link=bogus" e.clause;
      Alcotest.(check int) "position" 8 e.position;
      Alcotest.(check bool) "reason names the shape" true
        (contains ~affix:"PROB:DELAY" e.reason));
  match Perturb.Spec.of_string "noise=uniform:0.2 wat=1" with
  | Ok _ -> Alcotest.fail "accepted an unknown clause"
  | Error (`Msg m) ->
      Alcotest.(check bool) "message points at the clause" true
        (contains ~affix:{|"wat=1" at offset 18|} m)

let test_app_spec_error_location () =
  let spec lines = String.concat "\n" lines in
  (match
     Apps.Spec.full_of_string
       (spec
          [ "nx = 8"; "ny = 8"; "nz = 4"; "wg = 1.0";
            "perturb = seed=1 fail=1:oops" ])
   with
  | Ok _ -> Alcotest.fail "accepted a bad perturb stanza"
  | Error (`Msg m) ->
      Alcotest.(check bool) "names the line" true
        (contains ~affix:"line 5" m);
      Alcotest.(check bool) "names the clause" true
        (contains ~affix:{|"fail=1:oops"|} m));
  match
    Apps.Spec.full_of_string
      (spec [ "nx = 8"; "ny = 8"; "nz = four"; "wg = 1.0" ])
  with
  | Ok _ -> Alcotest.fail "accepted a bad integer"
  | Error (`Msg m) ->
      Alcotest.(check bool) "bad value names its line" true
        (contains ~affix:"line 3" m)

(* --- Exit-status discipline (the CLI's 0/3/4 contract) --- *)

let test_exit_status () =
  (* Clean perturbation: 0. *)
  let clean =
    Harness.Perturb_report.run fixed_cfg fixed_app Perturb.Spec.zero
  in
  Alcotest.(check int) "clean perturb" 0
    (Harness.Perturb_report.exit_status clean);
  (* A spec'd kill without recovery is an unrecovered failure: 4. *)
  let killed =
    Harness.Perturb_report.run fixed_cfg fixed_app
      (Perturb.Spec.v ~failures:[ { rank = 5; after_tiles = 6 } ] ())
  in
  Alcotest.(check int) "unrecovered perturb" 4
    (Harness.Perturb_report.exit_status killed);
  (* The same kill under a checkpoint policy recovers: 0. *)
  let recovered =
    Harness.Recover_report.run
      ~policy:(Perturb.Recover.v ~ckpt_cost:50.0 ~restart_cost:500.0 10)
      fixed_cfg fixed_app
      (Perturb.Spec.v ~failures:[ { rank = 5; after_tiles = 6 } ] ())
  in
  Alcotest.(check int) "recovered" 0
    (Harness.Recover_report.exit_status recovered)

(* --- Zero-checkpoint invisibility (QCheck) --- *)

let schedules =
  [ Sweeps.Schedule.sweep3d; Sweeps.Schedule.lu; Sweeps.Schedule.chimaera ]

let small_app_gen =
  QCheck.Gen.(
    map
      (fun (((cols, rows), (nz, htile)), sched) ->
        let grid = Data_grid.v ~nx:(2 * cols) ~ny:(2 * rows) ~nz in
        let app =
          Apps.Custom.params ~name:"qcheck"
            ~schedule:(List.nth schedules sched) ~htile
            ~nonwavefront:Wavefront_core.App_params.No_op ~wg:1.0 grid
        in
        ((cols, rows), app))
      (pair
         (pair
            (pair (int_range 1 3) (int_range 1 3))
            (pair (int_range 1 4) (float_range 0.5 2.5)))
         (int_range 0 2)))

let pp_app_case ((cols, rows), (app : Wavefront_core.App_params.t)) =
  Fmt.str "%dx%d %a htile=%.2f %s" cols rows Data_grid.pp app.grid app.htile
    app.name

(* Mirrors the zero-perturbation-spec contract of PR 3: a disabled policy
   (interval 0) must be bitwise invisible on both simulators — the whole
   outcome records compare equal. *)
let prop_zero_interval_identity =
  QCheck.Test.make ~name:"disabled recovery policy is bitwise invisible"
    ~count:15
    (QCheck.make ~print:pp_app_case small_app_gen)
    (fun ((cols, rows), app) ->
      let pg = Proc_grid.v ~cols ~rows in
      let machine = machine_of pg in
      let base = Xtsim.Wavefront_sim.run machine app in
      let off =
        Xtsim.Wavefront_sim.run ~recover:Perturb.Recover.disabled machine app
      in
      let dbase = Wrun.Dataflow.run pg app in
      let doff =
        Wrun.Dataflow.run ~recover:Perturb.Recover.disabled pg app
      in
      base = off && dbase = doff)

(* --- Orphaned-send oracle (QCheck) --- *)

(* An independent interpreter of the Figure-4 protocol: per-rank op lists
   driven to a fixpoint with plain counters. A kill strikes at the rank's
   [after_tiles]-th compute — after that tile's receives, before its
   sends — exactly Perturb.Model.before_compute's schedule. The dataflow
   backend's orphan count must equal what this fixpoint proves stranded. *)
type oracle_op = Recv of int | Compute | Send of int

let oracle_ops pg (app : Wavefront_core.App_params.t) ~iterations rank =
  let cfg = Wrun.Program.of_app ~iterations pg app in
  let i, j = Proc_grid.coords pg rank in
  let has p = Proc_grid.contains pg p in
  let ops = ref [] in
  for _iter = 1 to iterations do
    List.iter
      (fun sw ->
        let dx, dy, _ = Wrun.Program.flow pg sw in
        let step p = if has p then [ p ] else [] in
        for _tile = 0 to cfg.tiling.ntiles - 1 do
          ops :=
            List.rev_append
              (List.map (fun p -> Recv (Proc_grid.rank pg p))
                 (step (i - dx, j) @ step (i, j - dy))
              @ [ Compute ]
              @ List.map (fun p -> Send (Proc_grid.rank pg p))
                  (step (i + dx, j) @ step (i, j + dy)))
              !ops
        done)
      (Sweeps.Schedule.sweeps cfg.schedule)
  done;
  List.rev !ops

let oracle_orphans pg app ~iterations (spec : Perturb.Spec.t) =
  let cores = Proc_grid.cores pg in
  let kill = Array.make cores max_int in
  List.iter
    (fun (f : Perturb.Spec.failure) ->
      kill.(f.rank) <- min kill.(f.rank) f.after_tiles)
    spec.failures;
  let ops = Array.init cores (fun r -> ref (oracle_ops pg app ~iterations r)) in
  let computes = Array.make cores 0 in
  let alive = Array.make cores true in
  let sent = Hashtbl.create 16 and recvd = Hashtbl.create 16 in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let bump tbl k = Hashtbl.replace tbl k (get tbl k + 1) in
  let progress = ref true in
  while !progress do
    progress := false;
    for r = 0 to cores - 1 do
      let running = ref alive.(r) in
      while !running do
        match !(ops.(r)) with
        | [] -> running := false
        | Recv src :: rest ->
            if get sent (src, r) > get recvd (src, r) then begin
              bump recvd (src, r);
              ops.(r) := rest;
              progress := true
            end
            else running := false
        | Compute :: rest ->
            if computes.(r) >= kill.(r) then begin
              alive.(r) <- false;
              running := false
            end
            else begin
              computes.(r) <- computes.(r) + 1;
              ops.(r) := rest;
              progress := true
            end
        | Send dst :: rest ->
            bump sent (r, dst);
            ops.(r) := rest;
            progress := true
      done
    done
  done;
  let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0 in
  total sent - total recvd

let orphan_case_gen =
  QCheck.Gen.(
    small_app_gen >>= fun ((cols, rows), app) ->
    let cores = cols * rows in
    let failure =
      map2
        (fun rank after_tiles : Perturb.Spec.failure -> { rank; after_tiles })
        (int_range 0 (cores - 1))
        (int_range 0 40)
    in
    map2
      (fun iterations failures ->
        (((cols, rows), app), iterations, Perturb.Spec.v ~failures ()))
      (int_range 1 2)
      (list_size (int_range 1 2) failure))

let pp_orphan_case (case, iterations, spec) =
  Fmt.str "%s iters=%d [%a]" (pp_app_case case) iterations Perturb.Spec.pp
    spec

let prop_orphans_match_oracle =
  QCheck.Test.make
    ~name:"dataflow orphan count equals the fixpoint oracle's" ~count:30
    (QCheck.make ~print:pp_orphan_case orphan_case_gen)
    (fun (((cols, rows), app), iterations, spec) ->
      let pg = Proc_grid.v ~cols ~rows in
      let o = Wrun.Dataflow.run ~iterations ~perturb:spec pg app in
      o.orphaned = oracle_orphans pg app ~iterations spec)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_zero_interval_identity; prop_orphans_match_oracle ]

let suite =
  [
    ( "recover.model",
      [
        Alcotest.test_case "due / checkpoint count" `Quick
          test_due_and_checkpoints;
        Alcotest.test_case "lost waves" `Quick test_lost_waves;
        Alcotest.test_case "optimal interval" `Quick test_optimal_interval;
        Alcotest.test_case "closed-form terms" `Quick test_terms;
      ] );
    ( "recover.store",
      [
        Alcotest.test_case "memory store" `Quick test_memory_store;
        Alcotest.test_case "file store round trip" `Quick
          test_file_store_round_trip;
      ] );
    ( "recover.sim",
      [
        Alcotest.test_case "simulator revives a killed rank" `Quick
          test_sim_recovers;
        Alcotest.test_case "recover spans match the closed form" `Quick
          test_sim_matches_closed_form;
        Alcotest.test_case "dataflow revives a killed rank" `Quick
          test_dataflow_recovers;
      ] );
    ( "recover.real",
      [
        Alcotest.test_case "recovered run is bitwise identical" `Quick
          test_real_recovery_bitwise;
        Alcotest.test_case "respawn from scratch" `Quick
          test_real_recovery_from_scratch;
      ] );
    ( "recover.channel",
      [
        Alcotest.test_case "usable after a timeout" `Quick
          test_channel_usable_after_timeout;
        Alcotest.test_case "replay suppression and release" `Quick
          test_channel_replay_suppression;
      ] );
    ( "recover.errors",
      [
        Alcotest.test_case "perturb clause location" `Quick
          test_spec_parse_error_location;
        Alcotest.test_case "app spec line numbers" `Quick
          test_app_spec_error_location;
      ] );
    ("recover.exit", [ Alcotest.test_case "0/3/4 contract" `Quick test_exit_status ]);
    ("recover.properties", props);
  ]
