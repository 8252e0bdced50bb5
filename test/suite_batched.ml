(* Tests for the wave-batched engine and its supporting layers: the
   cell-for-cell differential identities against the event-level
   simulator (perturbations, recovery and multi-iteration schedules
   included), the epilogue and collective-noise pins, bitwise
   determinism across domain counts, the streaming timeline accumulator,
   the SoA event heap, and the event engine's structured rank ceiling. *)

open Wgrid

let xt4 = Loggp.Params.xt4
let sweep n = Apps.Sweep3d.params (Data_grid.cube n)

let costs_for pg app = Wrun.Costs.loggp ~cmp:Cmp.single_core xt4 pg app

let spec s =
  match Perturb.Spec.of_string s with
  | Ok v -> v
  | Error (`Msg e) -> Alcotest.failf "bad spec %S: %s" s e

(* Sweep3D without its all-reduce epilogue: the event simulator runs the
   all-reduce as a message-level collective where the batched engine
   charges eq. 9, so the cell-for-cell identities hold for the wavefront
   section; the epilogue has its own pins below. *)
let sweep_no_op n =
  { (sweep n) with
    Wavefront_core.App_params.nonwavefront = Wavefront_core.App_params.No_op
  }

let event_machine pg =
  Xtsim.Machine.v ~model_bus:false ~cmp:Cmp.single_core xt4 pg

(* The event simulator's timeline for a configuration (single-core
   nodes, bus off), via a span tracer — the independent reference every
   batched timeline is held to. *)
let event_timeline ?iterations ?perturb ?recover ~waves pg app =
  let tr = Obs.Tracer.create () in
  let o =
    Xtsim.Wavefront_sim.run ?iterations ?perturb ?recover ~obs:tr
      (event_machine pg) app
  in
  (o, Obs.Timeline.of_spans ~waves (Obs.Tracer.spans tr))

(* The batched engine's timeline reconstructed the same way (traced). *)
let batched_span_timeline ?iterations ?perturb ?recover ~waves costs pg app =
  let tr = Obs.Tracer.create () in
  let o = Wrun.Batched.run ?iterations ?perturb ?recover ~obs:tr ~costs pg app in
  (o, Obs.Timeline.of_spans ~waves (Obs.Tracer.spans tr))

(* --- Differential identity: batched = event simulator, cell for cell --- *)

let test_traced_identity () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_no_op 16 in
  let costs = costs_for pg app in
  let ob, tl_spans = batched_span_timeline ~waves:0 costs pg app in
  let oe, tl_ev = event_timeline ~waves:ob.waves pg app in
  Alcotest.(check bool) "both completed" true (ob.completed && oe.completed);
  Alcotest.(check int) "same messages" oe.sends ob.messages;
  Alcotest.(check int) "no orphans" 0 ob.orphaned;
  Alcotest.(check bool) "traced timelines coincide" true
    (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_spans);
  (* The streaming cell path reconstructs the identical dense grid. *)
  let oc, tl_cells = Wrun.Batched.run_timeline ~costs pg app in
  Alcotest.(check bool) "cell-streamed timeline coincides" true
    (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells);
  Alcotest.(check (float 0.0)) "elapsed agrees bitwise with traced run"
    ob.elapsed oc.elapsed

let test_event_identity () =
  (* The timeline report's pairing on the same footing: with single-core
     nodes and the bus off, either observed engine and the batched model
     side coincide. *)
  let app = sweep_no_op 16 in
  let cfg =
    Wavefront_core.Plugplay.config ~cmp:Cmp.single_core xt4 ~cores:4
  in
  let ev = Harness.Timeline_report.run ~model_bus:false cfg app in
  let ba =
    Harness.Timeline_report.run ~model_bus:false ~engine:Harness.Engine.Batched
      cfg app
  in
  Alcotest.(check bool) "batched observed = its model side" true
    (Obs.Timeline.equal ~tol:1e-6 ba.observed ba.model);
  Alcotest.(check bool) "batched observed = event observed" true
    (Obs.Timeline.equal ~tol:1e-6 ev.observed ba.observed)

let perturbed_cases =
  [
    ("noise+link", "seed=42 noise=uniform:0.15 link=0.02:5", None, 1);
    ("collnoise", "seed=7 collnoise=80", None, 1);
    ("straggler", "seed=9 straggler=3:250", None, 1);
    ("pulse+periodic", "seed=3 pulse=3:40:500 periodic=16:120", None, 1);
    ("fail", "seed=5 fail=5:40", None, 1);
    ( "fail+recover",
      "seed=5 fail=5:40",
      Some { Perturb.Recover.interval = 16; ckpt_cost = 25.0;
             restart_cost = 400.0 },
      1 );
    ("iter2+noise", "seed=11 noise=uniform:0.2", None, 2);
  ]

let test_perturbed_identities () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_no_op 16 in
  let costs = costs_for pg app in
  List.iter
    (fun (name, s, recover, iterations) ->
      let perturb = spec s in
      let ob, tl_b =
        batched_span_timeline ~iterations ~perturb ?recover ~waves:0 costs pg
          app
      in
      let oe, tl_ev =
        event_timeline ~iterations ~perturb ?recover ~waves:ob.waves pg app
      in
      Alcotest.(check bool)
        (name ^ ": same completion") oe.completed ob.completed;
      Alcotest.(check (list int)) (name ^ ": same failed") oe.failed ob.failed;
      Alcotest.(check int) (name ^ ": same messages") oe.sends ob.messages;
      Alcotest.(check bool)
        (name ^ ": traced timelines coincide") true
        (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_b);
      (* The streaming cell contract merges multi-iteration visits, so the
         dense-grid identity is a single-iteration statement. *)
      if iterations = 1 then begin
        let _, tl_cells =
          Wrun.Batched.run_timeline ~iterations ~perturb ?recover ~costs pg
            app
        in
        Alcotest.(check bool)
          (name ^ ": cell-streamed timeline coincides") true
          (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells)
      end)
    perturbed_cases

let test_recovery_matches_event () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_no_op 16 in
  let costs = costs_for pg app in
  let perturb = spec "seed=5 fail=5:40" in
  let recover =
    { Perturb.Recover.interval = 16; ckpt_cost = 25.0; restart_cost = 400.0 }
  in
  let ob = Wrun.Batched.run ~perturb ~recover ~costs pg app in
  let oe =
    Xtsim.Wavefront_sim.run ~perturb ~recover (event_machine pg) app
  in
  Alcotest.(check bool) "batched completed" true ob.completed;
  Alcotest.(check (list int)) "same recovered set" oe.recovered ob.recovered;
  Alcotest.(check int) "same checkpoint count" oe.checkpoints ob.checkpoints;
  (* Every rank snapshots on the policy's schedule. *)
  Alcotest.(check int) "checkpoint count follows the schedule"
    (Perturb.Recover.checkpoints ~interval:recover.interval ~waves:ob.waves
    * ob.ranks)
    ob.checkpoints

(* --- The epilogue, pinned where the event simulator differs --- *)

(* The last rank into the epilogue waits on nobody, so the narrowest
   epilogue cell is the pure non-wavefront charge: the closed form's
   Tnonwavefront for every epilogue kind. *)
let test_epilogue_pin () =
  let cfg = Wavefront_core.Plugplay.config ~cmp:Cmp.single_core xt4 ~cores:16 in
  List.iter
    (fun (name, app) ->
      let costs = costs_for cfg.pgrid app in
      let o, tl = Wrun.Batched.run_timeline ~costs cfg.pgrid app in
      let narrowest =
        Array.fold_left
          (fun acc row -> Float.min acc (Obs.Timeline.cell_width row.(o.waves)))
          infinity tl.cells
      in
      Alcotest.(check (float 1e-6))
        (name ^ ": narrowest epilogue cell = Tnonwavefront")
        (Wavefront_core.Plugplay.nonwavefront_time app cfg)
        narrowest)
    [
      ("sweep3d", sweep 16);
      ("lu", Apps.Lu.params (Data_grid.cube 16));
      ("chimaera", Apps.Chimaera.params (Data_grid.cube 16));
      ( "fixed",
        { (sweep 16) with
          Wavefront_core.App_params.nonwavefront =
            Wavefront_core.App_params.Fixed 75.0 } );
    ]

(* Collective noise is drawn once per all-reduce call on every rank, so
   the injected stall per rank matches the event simulator's bit for bit
   even though the two engines price the all-reduce itself differently. *)
let test_collnoise_pin () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let perturb = spec "seed=7 collnoise=80" in
  let per_rank tr =
    let tot = Array.make 16 0.0 in
    List.iter
      (fun (s : Obs.Span.t) ->
        if s.name = "perturb.collnoise" then
          tot.(s.rank) <- tot.(s.rank) +. s.dur)
      (Obs.Tracer.spans tr);
    tot
  in
  let tr_b = Obs.Tracer.create () and tr_e = Obs.Tracer.create () in
  ignore (Wrun.Batched.run ~perturb ~obs:tr_b ~costs:(costs_for pg app) pg app);
  ignore (Xtsim.Wavefront_sim.run ~perturb ~obs:tr_e (event_machine pg) app);
  let b = per_rank tr_b and e = per_rank tr_e in
  Alcotest.(check bool) "noise was injected" true
    (Array.exists (fun d -> d > 0.0) b);
  Array.iteri
    (fun rank d ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "rank %d collnoise total" rank)
        d b.(rank))
    e

(* --- Bitwise determinism across domain counts --- *)

(* Each configuration runs at 1 domain and at every listed domain
   count; elapsed bits, message count and the dense timeline must all
   match. The non-square grids put the diagonals' row ranges through
   every corner case — a diagonal shorter than the domain count leaves
   chunks empty — and the three apps sweep from different corners; the
   bus is on at 2 cores per node and each run has 2 iterations, so the
   epilogue's row bands meet the diagonal chunks on both sides. *)
let test_domain_determinism () =
  let check name ?iterations ?perturb ~costs pg app domains =
    let o1, tl1 =
      Wrun.Batched.run_timeline ?iterations ?perturb ~costs pg app
    in
    List.iter
      (fun domains ->
        let od, tld =
          Wrun.Batched.run_timeline ?iterations ?perturb ~domains ~costs pg
            app
        in
        let what fmt =
          Printf.sprintf ("%s, %d domains: " ^^ fmt) name domains
        in
        Alcotest.(check int64) (what "elapsed bits")
          (Int64.bits_of_float o1.elapsed)
          (Int64.bits_of_float od.elapsed);
        Alcotest.(check int) (what "messages") o1.messages od.messages;
        Alcotest.(check bool) (what "timeline bitwise-equal") true
          (Obs.Timeline.equal ~tol:0.0 tl1 tld))
      domains
  in
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  check "zero spec" ~costs pg app [ 2; 3; 16 ];
  check "perturbed"
    ~perturb:(spec "seed=3 pulse=3:40:500 straggler=2:100")
    ~costs pg app [ 2; 3; 16 ];
  let grid = Data_grid.cube 12 in
  List.iter
    (fun (cols, rows) ->
      let pg = Proc_grid.v ~cols ~rows in
      List.iter
        (fun (name, app) ->
          let costs =
            Wrun.Costs.loggp ~model_bus:true ~cmp:(Cmp.of_cores_per_node 2)
              xt4 pg app
          in
          check
            (Printf.sprintf "%s on %dx%d" name cols rows)
            ~iterations:2 ~costs pg app [ 2; 3; 5 ])
        [
          ("sweep3d", Apps.Sweep3d.params grid);
          ("lu", Apps.Lu.params grid);
          ("chimaera", Apps.Chimaera.params grid);
        ])
    [ (9, 4); (4, 9); (2, 11); (7, 1) ]

(* The sink runs on the calling domain, in the order of a 1-domain run,
   so the streamed fold's float sums depend neither on the domain count
   nor on how the domains were scheduled. A 7x5 grid splits unevenly
   into 2 and 3 row bands; the bus is on, the run has 2 iterations, and
   the spec mixes straggler, link and collective noise — once under a
   recovery policy, once with an unrecovered kill whose stuck ranks are
   padded with zero-width cells. Each 2-domain case runs twice. *)
let test_stream_domain_determinism () =
  let pg = Proc_grid.of_cores 35 in
  let app = sweep 12 in
  let costs =
    Wrun.Costs.loggp ~model_bus:true ~cmp:(Cmp.of_cores_per_node 2) xt4 pg
      app
  in
  let waves =
    Sweeps.Schedule.nsweeps app.schedule
    * Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile
  in
  let perturb =
    spec "seed=5 straggler=3:120 link=0.05:7 collnoise=40 fail=9:20"
  in
  let streamed ?recover domains =
    let full = Obs.Timeline_stream.create ~ranks:35 ~waves () in
    let coarse =
      Obs.Timeline_stream.create ~max_rank_buckets:4 ~max_wave_buckets:8
        ~ranks:35 ~waves ()
    in
    let cells b =
      Obs.Timeline_stream.sink full b;
      Obs.Timeline_stream.sink coarse b
    in
    let o =
      Wrun.Batched.run ~iterations:2 ~perturb ?recover ~cells ~domains ~costs
        pg app
    in
    (o, [ full; coarse ])
  in
  let metrics =
    Obs.Timeline.[ Compute; Send; Recv; Wait; Idle; Busy; Total ]
  in
  let check_case name ?recover expect =
    let o1, s1 = streamed ?recover 1 in
    expect o1;
    List.iter
      (fun domains ->
        let od, sd = streamed ?recover domains in
        let what fmt = Printf.sprintf ("%s, %d domains: " ^^ fmt) name domains in
        Alcotest.(check int64) (what "elapsed bits")
          (Int64.bits_of_float o1.elapsed)
          (Int64.bits_of_float od.elapsed);
        List.iter2
          (fun a b ->
            Alcotest.(check int) (what "cells folded")
              (Obs.Timeline_stream.cells a)
              (Obs.Timeline_stream.cells b);
            Alcotest.(check bool) (what "bucket timeline bitwise-equal") true
              (Obs.Timeline.equal ~tol:0.0
                 (Obs.Timeline_stream.to_timeline a)
                 (Obs.Timeline_stream.to_timeline b));
            for col = 0 to waves do
              List.iter
                (fun m ->
                  Alcotest.(check int64) (what "column %d total bits" col)
                    (Int64.bits_of_float
                       (Obs.Timeline_stream.column_total a m col))
                    (Int64.bits_of_float
                       (Obs.Timeline_stream.column_total b m col)))
                metrics
            done)
          s1 sd)
      [ 2; 2; 3 ]
  in
  check_case "recovered"
    ~recover:
      { Perturb.Recover.interval = 8; ckpt_cost = 25.0; restart_cost = 400.0 }
    (fun o ->
      Alcotest.(check (list int)) "the killed rank recovers" [ 9 ] o.recovered;
      Alcotest.(check bool) "the recovered run completes" true o.completed);
  check_case "killed" (fun o ->
      Alcotest.(check (list int)) "the killed rank stays dead" [ 9 ] o.failed;
      Alcotest.(check bool) "ranks are left stuck" true (o.blocked <> []))

(* --- The event engine's structured rank ceiling --- *)

let test_rank_ceiling () =
  let pg = Proc_grid.of_cores 16 in
  let machine = Xtsim.Machine.v ~cmp:Cmp.single_core xt4 pg in
  let app = sweep 16 in
  (match Xtsim.Wavefront_sim.run ~max_ranks:4 machine app with
  | _ -> Alcotest.fail "expected Rank_ceiling"
  | exception Xtsim.Wavefront_sim.Rank_ceiling r ->
      Alcotest.(check int) "carries the rank count" 16 r.ranks;
      Alcotest.(check int) "carries the ceiling" 4 r.max_ranks;
      Alcotest.(check bool) "estimates the event volume" true
        (r.estimated_events > 0);
      let printed = Printexc.to_string (Xtsim.Wavefront_sim.Rank_ceiling r) in
      let has_sub ~sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "printer points at the batched engine" true
        (has_sub ~sub:"--engine=batched" printed));
  (* Below the ceiling nothing changes. *)
  let o = Xtsim.Wavefront_sim.run ~max_ranks:16 machine app in
  Alcotest.(check bool) "at the ceiling the run proceeds" true o.completed;
  Alcotest.(check bool) "default ceiling is past the test sizes" true
    (Xtsim.Wavefront_sim.default_max_ranks >= 65536)

(* --- The streaming timeline accumulator --- *)

let test_stream_lossless () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  let o0, dense = Wrun.Batched.run_timeline ~costs pg app in
  let st = Obs.Timeline_stream.create ~ranks:16 ~waves:o0.waves () in
  let o = Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink st) ~costs pg app in
  Alcotest.(check bool) "run completed" true o.completed;
  Alcotest.(check int) "one cell per (rank, column)"
    (16 * (o0.waves + 1))
    (Obs.Timeline_stream.cells st);
  (* With buckets >= extents the fold is lossless: the accumulator's
     timeline is the dense grid, bit for bit. *)
  Alcotest.(check bool) "bucket grid = dense grid" true
    (Obs.Timeline.equal ~tol:0.0 dense (Obs.Timeline_stream.to_timeline st));
  for col = 0 to o0.waves do
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "column %d compute total exact" col)
      (Obs.Timeline.column_total dense Obs.Timeline.Compute col)
      (Obs.Timeline_stream.column_total st Obs.Timeline.Compute col)
  done

let test_stream_bucketized () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  let waves =
    Sweeps.Schedule.nsweeps app.schedule
    * Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile
  in
  let st =
    Obs.Timeline_stream.create ~max_rank_buckets:4 ~max_wave_buckets:8
      ~ranks:16 ~waves ()
  in
  let o =
    Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink st) ~domains:3 ~costs pg
      app
  in
  Alcotest.(check bool) "multi-domain run completed" true o.completed;
  Alcotest.(check int) "rank buckets clamped" 4
    (Obs.Timeline_stream.rank_buckets st);
  (* The bucket bounds partition the rank range. *)
  let covered = ref 0 in
  for b = 0 to Obs.Timeline_stream.rank_buckets st - 1 do
    let lo, hi = Obs.Timeline_stream.rank_bucket_bounds st b in
    Alcotest.(check bool) "bucket non-empty" true (lo <= hi);
    covered := !covered + (hi - lo + 1)
  done;
  Alcotest.(check int) "rank buckets partition the ranks" 16 !covered;
  let lo, hi =
    Obs.Timeline_stream.wave_bucket_bounds st
      (Obs.Timeline_stream.wave_buckets st)
  in
  Alcotest.(check (pair int int)) "epilogue bucket is its own" (waves, waves)
    (lo, hi);
  let jb = Buffer.create 256 in
  Obs.Timeline_stream.emit_json ~label:"test" st (Buffer.add_string jb);
  let head = "{\"schema\":\"wavefront-timeline-stream/v1\"" in
  Alcotest.(check string) "JSON schema leads the document" head
    (String.sub (Buffer.contents jb) 0 (String.length head));
  (* Chunked emission: at full bucket resolution the 16 * (waves + 1)
     populated rows exceed the flush threshold, so the writer is called
     many times — never with one monolithic string. *)
  let full =
    Obs.Timeline_stream.create ~ranks:16 ~waves ()
  in
  ignore
    (Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink full) ~costs pg app);
  let json_chunks = ref 0 in
  Obs.Timeline_stream.emit_json ~label:"full" full (fun _ -> incr json_chunks);
  Alcotest.(check bool) "JSON emitted in chunks" true (!json_chunks > 1);
  let cb = Buffer.create 256 in
  Obs.Timeline_stream.emit_csv st (Buffer.add_string cb);
  let rows =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents cb))
  in
  Alcotest.(check bool) "CSV has a header and bucket rows" true
    (List.length rows > 1);
  (* Out-of-range cells are rejected, not silently folded; a valid cell
     ahead of the stray one in its batch stays folded and counted. *)
  let before = Obs.Timeline_stream.cells st in
  let col0 = Obs.Timeline_stream.column_cells st 0 in
  let stray = Obs.Cell_batch.create () in
  stray.ints.(3) <- 99;
  stray.n <- 2;
  Alcotest.check_raises "out-of-range rank rejected"
    (Invalid_argument "Timeline_stream.sink: cell out of range") (fun () ->
      Obs.Timeline_stream.sink st stray);
  Alcotest.(check int) "cell before the stray one counted" (before + 1)
    (Obs.Timeline_stream.cells st);
  Alcotest.(check int) "cell before the stray one folded" (col0 + 1)
    (Obs.Timeline_stream.column_cells st 0)

(* --- The SoA event heap --- *)

let test_heap_ordering () =
  let h = Xtsim.Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Xtsim.Heap.is_empty h);
  Alcotest.check_raises "top_time on empty raises"
    (Invalid_argument "Heap.top_time: empty") (fun () ->
      ignore (Xtsim.Heap.top_time h));
  (* Equal times pop in insertion order; the growth path (past the initial
     capacity) preserves the ordering invariant. *)
  let n = 1000 in
  let entries =
    List.init n (fun i ->
        let time = float_of_int ((i * 7919) mod 97) in
        (time, i))
  in
  List.iter (fun (time, seq) -> Xtsim.Heap.push h ~time ~seq (time, seq)) entries;
  Alcotest.(check int) "all queued" n (Xtsim.Heap.length h);
  let sorted = List.sort compare entries in
  List.iter
    (fun expected ->
      let t = Xtsim.Heap.top_time h in
      let v = Xtsim.Heap.pop_top h in
      Alcotest.(check (float 0.0)) "top_time = popped time" (fst v) t;
      Alcotest.(check (pair (float 0.0) int)) "pop order (time, then seq)"
        expected v)
    sorted;
  Alcotest.(check bool) "drained" true (Xtsim.Heap.is_empty h)

let test_heap_compat () =
  (* The allocating entry API stays coherent with the SoA fast path. *)
  let h = Xtsim.Heap.create () in
  Xtsim.Heap.push h ~time:2.0 ~seq:0 "b";
  Xtsim.Heap.push h ~time:1.0 ~seq:1 "a";
  (match Xtsim.Heap.peek h with
  | Some e ->
      Alcotest.(check (float 0.0)) "peek time" 1.0 e.Xtsim.Heap.time;
      Alcotest.(check string) "peek value" "a" e.Xtsim.Heap.value
  | None -> Alcotest.fail "peek on non-empty");
  (match Xtsim.Heap.pop h with
  | Some e -> Alcotest.(check string) "pop entry value" "a" e.Xtsim.Heap.value
  | None -> Alcotest.fail "pop on non-empty");
  Alcotest.(check string) "remaining element" "b" (Xtsim.Heap.pop_top h);
  Alcotest.(check bool) "pop on empty" true (Xtsim.Heap.pop h = None)

(* --- Random differential property --- *)

let qcheck_differential =
  QCheck.Test.make ~count:8
    ~name:"batched = event = domains-sharded on random configurations"
    QCheck.(
      triple
        (QCheck.make (QCheck.Gen.oneofl [ 4; 9; 16; 64; 256 ]))
        (QCheck.make (QCheck.Gen.oneofl [ 12; 16; 20 ]))
        (pair (int_range 0 1000) (int_range 0 3)))
    (fun (cores, nz, (seed, kind)) ->
      let pg = Proc_grid.of_cores cores in
      let app = sweep_no_op nz in
      let costs = costs_for pg app in
      let perturb =
        match kind with
        | 0 -> None
        | 1 -> Some (spec (Printf.sprintf "seed=%d noise=uniform:0.2" seed))
        | 2 -> Some (spec (Printf.sprintf "seed=%d straggler=1:150" seed))
        | _ -> Some (spec (Printf.sprintf "seed=%d pulse=0:10:300" seed))
      in
      let ob, tl_cells = Wrun.Batched.run_timeline ?perturb ~costs pg app in
      let oe, tl_ev = event_timeline ?perturb ~waves:ob.waves pg app in
      let od, tl_dom =
        Wrun.Batched.run_timeline ?perturb ~domains:2 ~costs pg app
      in
      Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells
      && oe.sends = ob.messages
      && Obs.Timeline.equal ~tol:0.0 tl_cells tl_dom
      && od.elapsed = ob.elapsed)

(* --- One protocol on combined specs --- *)

(* Every clause at once (no collnoise: the No_op epilogue has no
   allreduce), with and without a recovery policy, on any of the three
   applications; each rank-naming clause names a rank of the run. The
   grids keep every face under the 1024-byte eager limit: a rendezvous
   send to a dead rank blocks its sender in the event simulator, while
   the batched engine's sends are all eager. *)
let gen_protocol_case =
  let open QCheck.Gen in
  let no_op app =
    { app with
      Wavefront_core.App_params.nonwavefront = Wavefront_core.App_params.No_op
    }
  in
  let* cores = int_range 4 25 in
  let* iterations = int_range 1 2 in
  let* n = int_range 6 10 in
  let grid = Data_grid.cube n in
  let* app =
    oneofl
      [
        ("sweep3d", no_op (Apps.Sweep3d.params grid));
        ("lu", no_op (Apps.Lu.params grid));
        ("chimaera", no_op (Apps.Chimaera.params grid));
      ]
  in
  let rank = int_range 0 (cores - 1) in
  let* seed = int_range 0 10_000 in
  let* noise =
    oneof
      [
        return Perturb.Spec.No_noise;
        map (fun a -> Perturb.Spec.Uniform a) (float_range 0.0 0.3);
        map (fun m -> Perturb.Spec.Exponential m) (float_range 0.0 0.2);
      ]
  in
  let* link =
    opt
      (map2
         (fun prob delay -> { Perturb.Spec.prob; delay })
         (float_range 0.0 0.3) (float_range 0.0 20.0))
  in
  let* stragglers =
    list_size (int_range 0 2)
      (map2
         (fun rank delay -> { Perturb.Spec.rank; delay })
         rank (float_range 0.0 200.0))
  in
  let* pulses =
    list_size (int_range 0 2)
      (map3
         (fun rank wave delay -> { Perturb.Spec.rank; wave; delay })
         rank (int_range 0 30) (float_range 0.0 400.0))
  in
  let* periodic =
    opt
      (map2
         (fun period amplitude -> { Perturb.Spec.period; amplitude })
         (int_range 1 8) (float_range 0.0 80.0))
  in
  let* failures =
    list_size (int_range 0 2)
      (map2
         (fun rank after_tiles -> { Perturb.Spec.rank; after_tiles })
         rank (int_range 0 40))
  in
  let* recover =
    opt
      (map3
         (fun k ckpt_cost restart_cost ->
           Perturb.Recover.v ~ckpt_cost ~restart_cost k)
         (int_range 1 8) (float_range 0.0 50.0) (float_range 0.0 500.0))
  in
  return
    ( cores,
      app,
      iterations,
      Perturb.Spec.v ~seed ~noise ?link ~stragglers ~pulses ?periodic
        ~failures (),
      recover )

let print_protocol_case (cores, (name, _), iterations, perturb, recover) =
  Fmt.str "%d ranks, %s, %d iteration(s), [%a], recovery %a" cores name
    iterations Perturb.Spec.pp perturb
    Fmt.(option ~none:(any "none") Perturb.Recover.pp)
    recover

(* A traced run's perturb.* and recover.* spans, per rank in program
   order, as (name, wave, duration). *)
let protocol_spans ~ranks tr =
  let per_rank = Array.make ranks [] in
  let prefixed name p =
    String.length name > String.length p
    && String.sub name 0 (String.length p) = p
  in
  List.iter
    (fun (s : Obs.Span.t) ->
      if prefixed s.name "perturb." || prefixed s.name "recover." then
        per_rank.(s.rank) <-
          (s.name, Obs.Span.arg_int s Obs.Timeline.wave_arg, s.dur)
          :: per_rank.(s.rank))
    (Obs.Tracer.spans tr);
  Array.map List.rev per_rank

let qcheck_one_protocol =
  QCheck.Test.make ~count:60
    ~name:"batched = event protocol spans on combined specs"
    (QCheck.make ~print:print_protocol_case gen_protocol_case)
    (fun (cores, (_, app), iterations, perturb, recover) ->
      let pg = Proc_grid.of_cores cores in
      let tr_b = Obs.Tracer.create () and tr_e = Obs.Tracer.create () in
      let ob =
        Wrun.Batched.run ~iterations ~perturb ?recover ~obs:tr_b
          ~costs:(costs_for pg app) pg app
      in
      let oe =
        Xtsim.Wavefront_sim.run ~iterations ~perturb ?recover ~obs:tr_e
          (event_machine pg) app
      in
      let od = Wrun.Dataflow.run ~iterations ~perturb ?recover pg app in
      let same (nb, wb, db) (ne, we, de) =
        nb = ne && wb = we && Float.abs (db -. de) <= 1e-6
      in
      Array.for_all2
        (fun b e -> List.length b = List.length e && List.for_all2 same b e)
        (protocol_spans ~ranks:cores tr_b)
        (protocol_spans ~ranks:cores tr_e)
      && ob.failed = oe.failed
      && ob.recovered = oe.recovered
      && ob.checkpoints = oe.checkpoints
      && od.recovered = ob.recovered)

let suite =
  [
    ( "batched.identity",
      [
        Alcotest.test_case "traced = streamed = event" `Quick
          test_traced_identity;
        Alcotest.test_case "batched = event simulator" `Quick
          test_event_identity;
        Alcotest.test_case "perturbed and recovering runs" `Quick
          test_perturbed_identities;
        Alcotest.test_case "recovery outcome matches event" `Quick
          test_recovery_matches_event;
        QCheck_alcotest.to_alcotest qcheck_differential;
        QCheck_alcotest.to_alcotest qcheck_one_protocol;
      ] );
    ( "batched.epilogue",
      [
        Alcotest.test_case "narrowest cell = Tnonwavefront" `Quick
          test_epilogue_pin;
        Alcotest.test_case "collnoise bit-equal to event" `Quick
          test_collnoise_pin;
      ] );
    ( "batched.domains",
      [
        Alcotest.test_case "bitwise determinism across domain counts" `Quick
          test_domain_determinism;
        Alcotest.test_case "streamed cells bitwise-equal across domains" `Quick
          test_stream_domain_determinism;
      ] );
    ( "batched.scale",
      [
        Alcotest.test_case "event engine rank ceiling" `Quick
          test_rank_ceiling;
        Alcotest.test_case "streaming accumulator lossless" `Quick
          test_stream_lossless;
        Alcotest.test_case "streaming accumulator bucketized" `Quick
          test_stream_bucketized;
      ] );
    ( "batched.heap",
      [
        Alcotest.test_case "SoA ordering and growth" `Quick test_heap_ordering;
        Alcotest.test_case "entry API compatibility" `Quick test_heap_compat;
      ] );
  ]
