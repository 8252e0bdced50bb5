(* Tests for the real shared-memory message-passing runtime. *)

let test_channel_fifo () =
  let c = Shmpi.Channel.create () in
  Shmpi.Channel.send c [| 1.0 |];
  Shmpi.Channel.send c [| 2.0 |];
  Alcotest.(check (float 0.0)) "first" 1.0 (Shmpi.Channel.recv c).(0);
  Alcotest.(check (float 0.0)) "second" 2.0 (Shmpi.Channel.recv c).(0);
  Alcotest.(check bool) "empty" true (Shmpi.Channel.try_recv c = None)

let test_channel_copies () =
  let c = Shmpi.Channel.create () in
  let payload = [| 7.0 |] in
  Shmpi.Channel.send c payload;
  payload.(0) <- 9.0;
  Alcotest.(check (float 0.0)) "copied on send" 7.0 (Shmpi.Channel.recv c).(0)

let test_ring_pass () =
  (* Each rank forwards an accumulating token around a ring. *)
  let ranks = 4 in
  let r =
    Shmpi.Runtime.run ~ranks (fun comm rank ->
        if rank = 0 then begin
          Shmpi.Comm.send comm ~src:0 ~dst:1 [| 1.0 |];
          (Shmpi.Comm.recv comm ~dst:0 ~src:(ranks - 1)).(0)
        end
        else begin
          let v = (Shmpi.Comm.recv comm ~dst:rank ~src:(rank - 1)).(0) in
          Shmpi.Comm.send comm ~src:rank ~dst:((rank + 1) mod ranks)
            [| v +. 1.0 |];
          v
        end)
  in
  Alcotest.(check (float 0.0)) "token back at 0" 4.0 r.values.(0);
  Alcotest.(check (float 0.0)) "rank 3 saw 3" 3.0 r.values.(3)

let test_barrier () =
  (* After a barrier, every rank must observe every other rank's pre-barrier
     write. *)
  let ranks = 4 in
  let flags = Array.make ranks 0 in
  let r =
    Shmpi.Runtime.run ~ranks (fun comm rank ->
        flags.(rank) <- 1;
        Shmpi.Comm.barrier comm ~rank;
        Array.fold_left ( + ) 0 flags)
  in
  Array.iter (fun v -> Alcotest.(check int) "saw all" ranks v) r.values

let test_allreduce_sum () =
  List.iter
    (fun ranks ->
      let r =
        Shmpi.Runtime.run ~ranks (fun comm rank ->
            Shmpi.Comm.allreduce comm ~rank ~op:( +. )
              (float_of_int (rank + 1)))
      in
      let expected = float_of_int (ranks * (ranks + 1) / 2) in
      Array.iteri
        (fun rank v ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "P=%d rank %d" ranks rank)
            expected v)
        r.values)
    [ 1; 2; 3; 4; 5; 7; 8 ]

let test_allreduce_max () =
  let ranks = 6 in
  let r =
    Shmpi.Runtime.run ~ranks (fun comm rank ->
        Shmpi.Comm.allreduce comm ~rank ~op:Float.max
          (float_of_int ((rank * 7) mod 5)))
  in
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "max" 4.0 v) r.values

let test_rank_failure () =
  (* A raising rank must not leak the other domains: they all run to
     completion and the failure resurfaces with its rank attached. *)
  let finished = Array.make 4 false in
  match
    Shmpi.Runtime.run ~ranks:4 (fun _ rank ->
        if rank = 2 then failwith "boom";
        finished.(rank) <- true)
  with
  | _ -> Alcotest.fail "expected Rank_failure"
  | exception Shmpi.Runtime.Rank_failure { rank; failed; exn; _ } ->
      Alcotest.(check int) "failing rank" 2 rank;
      Alcotest.(check (list int)) "all failures collected" [ 2 ] failed;
      (match exn with
      | Failure m -> Alcotest.(check string) "original exception" "boom" m
      | e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Fmt.str "rank %d joined" r)
            true finished.(r))
        [ 0; 1; 3 ]

let test_rank_failure_multiple () =
  match
    Shmpi.Runtime.run ~ranks:3 (fun _ rank ->
        if rank <> 1 then failwith (string_of_int rank))
  with
  | _ -> Alcotest.fail "expected Rank_failure"
  | exception Shmpi.Runtime.Rank_failure { rank; failed; _ } ->
      Alcotest.(check int) "lowest failing rank" 0 rank;
      Alcotest.(check (list int)) "every failure" [ 0; 2 ] failed

let test_recv_timeout () =
  (* A receive starved by a dead sender must raise Timeout with routing
     context, not deadlock the join. *)
  match
    Shmpi.Runtime.run ~ranks:2 ~timeout_us:20_000.0 (fun comm rank ->
        if rank = 0 then ignore (Shmpi.Comm.recv comm ~dst:0 ~src:1))
  with
  | _ -> Alcotest.fail "expected Rank_failure"
  | exception Shmpi.Runtime.Rank_failure { rank; failed; exn; _ } ->
      Alcotest.(check int) "starved rank" 0 rank;
      Alcotest.(check (list int)) "only the starved rank" [ 0 ] failed;
      (match exn with
      | Shmpi.Comm.Timeout { rank; src; op; waited_us } ->
          Alcotest.(check int) "timeout rank" 0 rank;
          Alcotest.(check int) "awaited source" 1 src;
          Alcotest.(check string) "operation" "recv" op;
          Alcotest.(check bool) "waited at least the deadline" true
            (waited_us >= 20_000.0)
      | e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e))

let test_barrier_timeout () =
  (* A rank that never reaches the barrier must not strand the others. *)
  match
    Shmpi.Runtime.run ~ranks:3 ~timeout_us:20_000.0 (fun comm rank ->
        if rank <> 2 then Shmpi.Comm.barrier comm ~rank)
  with
  | _ -> Alcotest.fail "expected Rank_failure"
  | exception Shmpi.Runtime.Rank_failure { failed; exn; _ } ->
      Alcotest.(check (list int)) "both waiters time out" [ 0; 1 ] failed;
      (match exn with
      | Shmpi.Comm.Timeout { op; src; _ } ->
          Alcotest.(check string) "operation" "barrier" op;
          Alcotest.(check int) "barrier has no source" (-1) src
      | e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e))

let epilogues : (string * Wavefront_core.App_params.nonwavefront) list =
  [
    ("no_op", No_op);
    ("fixed", Fixed 3.0);
    ("allreduce", Allreduce { count = 2; msg_size = 16 });
    ("stencil", Stencil { wg_stencil = 0.01; halo_bytes_per_cell = 24.0 });
  ]

let killed_plan nonwavefront =
  let grid = Wgrid.Data_grid.v ~nx:6 ~ny:4 ~nz:4 in
  let pg = Wgrid.Proc_grid.v ~cols:2 ~rows:2 in
  let spec = Perturb.Spec.v ~failures:[ { rank = 1; after_tiles = 2 } ] () in
  Kernels.Sweep_exec.plan ~htile:2 ~nonwavefront ~perturb:spec grid pg

let test_killed_rank_raises () =
  (* Through the plain entry point, a spec-killed rank surfaces as a
     Rank_failure naming it, whatever the epilogue; the peers it starves
     time out instead of hanging. *)
  List.iter
    (fun (name, nwf) ->
      match Kernels.Sweep_exec.run ~timeout_us:50_000.0 (killed_plan nwf) with
      | _ -> Alcotest.failf "%s: expected Rank_failure" name
      | exception Shmpi.Runtime.Rank_failure { failed; _ } ->
          Alcotest.(check bool)
            (Fmt.str "%s: killed rank reported" name)
            true (List.mem 1 failed))
    epilogues

let test_killed_rank_degrades () =
  (* Through run_resilient the same failure degrades gracefully: the
     outcome names the killed rank and reports the partial frontier — the
     victim completed exactly after_tiles tiles, some peer got further. *)
  List.iter
    (fun (name, nwf) ->
      match
        Kernels.Sweep_exec.run_resilient ~timeout_us:50_000.0 (killed_plan nwf)
      with
      | Completed _ -> Alcotest.failf "%s: expected Degraded" name
      | Degraded { failed; frontier; _ } ->
          Alcotest.(check bool)
            (Fmt.str "%s: killed rank reported" name)
            true (List.mem 1 failed);
          Alcotest.(check int)
            (Fmt.str "%s: victim frontier" name)
            2 frontier.(1);
          Alcotest.(check bool)
            (Fmt.str "%s: a peer got further" name)
            true
            (frontier.(0) > 2 || frontier.(2) > 2 || frontier.(3) > 2))
    epilogues

let test_span_collection () =
  (* Per-rank tracers on a real run: a program span per rank, send/recv
     spans with routing args, and message edges recoverable from them. *)
  let ranks = 3 in
  let trs = Array.init ranks (fun _ -> Obs.Tracer.create ()) in
  let r =
    Shmpi.Runtime.run ~obs:trs ~ranks (fun comm rank ->
        if rank = 0 then Shmpi.Comm.send comm ~src:0 ~dst:1 [| 1.0; 2.0 |]
        else if rank = 1 then
          ignore (Shmpi.Comm.recv comm ~dst:1 ~src:0);
        Shmpi.Comm.barrier comm ~rank;
        Shmpi.Comm.allreduce comm ~rank ~op:( +. ) 1.0)
  in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "allreduce result" 3.0 v)
    r.values;
  let spans = Obs.Tracer.merge trs in
  let named n =
    List.filter (fun (s : Obs.Span.t) -> s.name = n) spans
  in
  Alcotest.(check int) "one program span per rank" ranks
    (List.length (named "rank"));
  Alcotest.(check int) "one barrier span per rank" ranks
    (List.length (named "barrier"));
  Alcotest.(check int) "allreduce spans" ranks (List.length (named "allreduce"));
  let boundary_send =
    List.find
      (fun (s : Obs.Span.t) ->
        s.rank = 0 && Obs.Span.arg_int s "dst" = Some 1)
      (named "send")
  in
  Alcotest.(check (option int)) "send size arg" (Some 2)
    (Obs.Span.arg_int boundary_send "size");
  let boundary_recv =
    List.find
      (fun (s : Obs.Span.t) ->
        s.rank = 1 && Obs.Span.arg_int s "src" = Some 0)
      (named "recv")
  in
  (match Obs.Span.arg_float boundary_recv "wait" with
  | Some w -> Alcotest.(check bool) "wait is non-negative" true (w >= 0.0)
  | None -> Alcotest.fail "recv span has no wait arg");
  let edges = Obs.Critical_path.edges_of_spans spans in
  Alcotest.(check bool) "0->1 message edge reconstructed" true
    (List.exists
       (fun (e : Obs.Critical_path.edge) -> e.src = 0 && e.dst = 1)
       edges)

let test_pingpong_measures () =
  let t = Shmpi.Pingpong.half_round_trip ~rounds:50 ~size_bytes:256 () in
  Alcotest.(check bool) "positive and sane" true (t > 0.0 && t < 1e6)

let test_fit_platform_sane () =
  (* Fitting on synthetic noiseless data must recover it; fitting on real
     measurements must produce physical (positive) parameters. *)
  let synth = List.map (fun s -> (s, 4.0 +. (0.002 *. float_of_int s)))
      [ 64; 256; 1024; 4096; 16384 ]
  in
  let p = Shmpi.Pingpong.fit_platform synth in
  Alcotest.(check (float 1e-9)) "G" 0.002 p.offnode.g;
  Alcotest.(check (float 1e-9)) "o" 2.0 p.offnode.o

let suite =
  [
    ( "shmpi.channel",
      [
        Alcotest.test_case "FIFO" `Quick test_channel_fifo;
        Alcotest.test_case "payload copied" `Quick test_channel_copies;
      ] );
    ( "shmpi.comm",
      [
        Alcotest.test_case "ring pass" `Quick test_ring_pass;
        Alcotest.test_case "barrier" `Quick test_barrier;
        Alcotest.test_case "allreduce sum (any P)" `Quick test_allreduce_sum;
        Alcotest.test_case "allreduce max" `Quick test_allreduce_max;
      ] );
    ( "shmpi.runtime",
      [
        Alcotest.test_case "rank failure joins all" `Quick test_rank_failure;
        Alcotest.test_case "multiple failures collected" `Quick
          test_rank_failure_multiple;
        Alcotest.test_case "span collection" `Quick test_span_collection;
      ] );
    ( "shmpi.resilience",
      [
        Alcotest.test_case "recv timeout instead of deadlock" `Quick
          test_recv_timeout;
        Alcotest.test_case "barrier timeout" `Quick test_barrier_timeout;
        Alcotest.test_case "killed rank raises (every epilogue)" `Quick
          test_killed_rank_raises;
        Alcotest.test_case "killed rank degrades (every epilogue)" `Quick
          test_killed_rank_degrades;
      ] );
    ( "shmpi.pingpong",
      [
        Alcotest.test_case "measures" `Quick test_pingpong_measures;
        Alcotest.test_case "fit platform" `Quick test_fit_platform_sane;
      ] );
  ]
