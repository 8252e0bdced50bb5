(* Tests for the perturbation & resilience layer: the PRNG and spec
   plumbing, the identity and determinism contracts (a zero spec injects
   nothing, a fixed seed injects the same thing twice), monotonicity of
   both the estimate and the simulator in every perturbation amplitude,
   and a golden `wavefront perturb` report. *)

open Wgrid

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Perturb.Prng.create ~seed:42 ~stream:3 in
  let b = Perturb.Prng.create ~seed:42 ~stream:3 in
  for i = 0 to 63 do
    let x = Perturb.Prng.float a and y = Perturb.Prng.float b in
    Alcotest.(check (float 0.0)) (Fmt.str "draw %d" i) x y;
    Alcotest.(check bool) "in [0, 1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_streams_decorrelated () =
  let a = Perturb.Prng.create ~seed:42 ~stream:0 in
  let b = Perturb.Prng.create ~seed:42 ~stream:1 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Perturb.Prng.float a <> Perturb.Prng.float b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

(* The generator is our own SplitMix64 precisely so draws cannot drift
   across OCaml releases (Stdlib.Random's algorithm may); freeze the first
   words of one stream to pin the implementation itself. *)
let test_prng_version_stable () =
  let t = Perturb.Prng.create ~seed:1 ~stream:0 in
  List.iteri
    (fun i expected ->
      Alcotest.(check int64)
        (Fmt.str "word %d" i)
        expected (Perturb.Prng.next t))
    [ 2275386345650349254L; -157587074807616370L; 8149182546752613363L ]

(* --- Spec parsing --- *)

let test_spec_parse () =
  match
    Perturb.Spec.of_string "seed=42 noise=uniform:0.2 link=0.05:10 \
                            straggler=3:80; fail=1:10"
  with
  | Error (`Msg m) -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "seed" 42 s.seed;
      (match s.noise with
      | Uniform a -> Alcotest.(check (float 1e-12)) "amplitude" 0.2 a
      | _ -> Alcotest.fail "expected uniform noise");
      (match s.link with
      | Some { prob; delay } ->
          Alcotest.(check (float 1e-12)) "prob" 0.05 prob;
          Alcotest.(check (float 1e-12)) "delay" 10.0 delay
      | None -> Alcotest.fail "expected a link clause");
      Alcotest.(check int) "stragglers" 1 (List.length s.stragglers);
      Alcotest.(check int) "failures" 1 (List.length s.failures);
      Alcotest.(check bool) "not zero" false (Perturb.Spec.is_zero s)

let test_spec_round_trip () =
  List.iter
    (fun text ->
      match Perturb.Spec.of_string text with
      | Error (`Msg m) -> Alcotest.fail m
      | Ok s -> (
          let printed = Perturb.Spec.to_string s in
          match Perturb.Spec.of_string printed with
          | Error (`Msg m) -> Alcotest.failf "reparse of %S: %s" printed m
          | Ok s' ->
              Alcotest.(check bool) (Fmt.str "round trip %S" text) true (s = s')))
    [
      "seed=7";
      "noise=exp:0.1";
      "noise=0.3 link=0.5:25";
      "seed=9 straggler=0:10 straggler=2:20 fail=1:4";
    ]

let test_spec_rejects () =
  List.iter
    (fun text ->
      match Perturb.Spec.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error (`Msg _) -> ())
    [ "bogus=1"; "noise=uniform:-0.5"; "link=2.0:5"; "fail=1:-1"; "seed=x" ]

let test_spec_zero () =
  Alcotest.(check bool) "zero is zero" true
    (Perturb.Spec.is_zero Perturb.Spec.zero);
  Alcotest.(check bool) "seed alone is still zero" true
    (match Perturb.Spec.of_string "seed=5" with
    | Ok s -> Perturb.Spec.is_zero s
    | Error _ -> false)

(* Non-finite values: of_string and the constructor share one check. *)
let test_spec_rejects_non_finite () =
  List.iter
    (fun text ->
      match Perturb.Spec.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error (`Msg _) -> ())
    [ "noise=uniform:inf"; "noise=exp:inf"; "pulse=1:2:inf"; "periodic=3:inf";
      "collnoise=inf"; "straggler=1:nan"; "straggler=1:inf"; "link=nan:5";
      "link=0.5:inf"; "link=0.5:nan"; "noise=nan"; "collnoise=-inf" ];
  let rejected name f =
    Alcotest.(check bool)
      (name ^ " rejected by Spec.v")
      true
      (match f () with
      | (_ : Perturb.Spec.t) -> false
      | exception Invalid_argument _ -> true)
  in
  rejected "NaN straggler delay" (fun () ->
      Perturb.Spec.v ~stragglers:[ { rank = 1; delay = Float.nan } ] ());
  rejected "NaN link probability" (fun () ->
      Perturb.Spec.v ~link:{ prob = Float.nan; delay = 5.0 } ());
  rejected "infinite link delay" (fun () ->
      Perturb.Spec.v ~link:{ prob = 0.5; delay = Float.infinity } ())

(* Whatever of_string accepts, the constructor accepts too, and rebuilds
   the same spec. *)
let prop_spec_one_validator =
  let clause =
    let open QCheck.Gen in
    let f =
      oneofl
        [ "0"; "-0"; "0.5"; "1"; "2"; "25"; "-1"; "1e308"; "1e-300";
          "0x1p-3"; "nan"; "inf"; "-inf" ]
    in
    let i = oneofl [ "0"; "1"; "3"; "40"; "-1" ] in
    let* key =
      oneofl
        [ "seed"; "noise=uniform"; "noise=exp"; "noise"; "link"; "straggler";
          "fail"; "pulse"; "periodic"; "collnoise" ]
    in
    let join = String.concat ":" in
    match key with
    | "seed" -> map (fun v -> "seed=" ^ v) i
    | "noise=uniform" | "noise=exp" -> map (fun v -> key ^ ":" ^ v) f
    | "noise" | "collnoise" -> map (fun v -> key ^ "=" ^ v) f
    | "link" -> map2 (fun a b -> "link=" ^ join [ a; b ]) f f
    | "straggler" -> map2 (fun a b -> "straggler=" ^ join [ a; b ]) i f
    | "fail" -> map2 (fun a b -> "fail=" ^ join [ a; b ]) i i
    | "pulse" -> map3 (fun a b c -> "pulse=" ^ join [ a; b; c ]) i i f
    | _ -> map2 (fun a b -> "periodic=" ^ join [ a; b ]) i f
  in
  QCheck.Test.make ~count:500 ~name:"of_string accepts only what Spec.v accepts"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(map (String.concat " ") (list_size (int_range 1 4) clause)))
    (fun text ->
      match Perturb.Spec.of_string text with
      | Error _ -> true
      | Ok s -> (
          match
            Perturb.Spec.v ~seed:s.seed ~noise:s.noise ?link:s.link
              ~stragglers:s.stragglers ~failures:s.failures ~pulses:s.pulses
              ?periodic:s.periodic ~coll_noise:s.coll_noise ()
          with
          | s' -> s' = s
          | exception Invalid_argument _ -> false))

(* --- The protocol's step functions --- *)

(* A [spend] callback that records what it is handed, by span name. *)
let spend_log () =
  let log = ref [] in
  ( (fun kind d -> log := (Perturb.Model.span_name kind, d) :: !log),
    fun () -> List.rev !log )

let test_model_nothing_to_inject () =
  let none ?perturb ?recover () =
    Option.is_none (Perturb.Model.create ?perturb ?recover ~ranks:4 ())
  in
  Alcotest.(check bool) "no spec, no policy" true (none ());
  Alcotest.(check bool) "no spec, disabled policy" true
    (none ~recover:Perturb.Recover.disabled ());
  Alcotest.(check bool) "a spec alone" false
    (none ~perturb:Perturb.Spec.zero ());
  Alcotest.(check bool) "an enabled policy alone" false
    (none ~recover:(Perturb.Recover.v 4) ())

let test_model_compute_order () =
  let spec =
    Perturb.Spec.v ~seed:1 ~noise:(Uniform 0.5)
      ~stragglers:[ { rank = 0; delay = 7.0 } ]
      ~pulses:[ { rank = 0; wave = 0; delay = 11.0 } ]
      ~periodic:{ period = 1; amplitude = 13.0 } ()
  in
  let m = Option.get (Perturb.Model.create ~perturb:spec ~ranks:2 ()) in
  let spend, log = spend_log () in
  Perturb.Model.before_compute m ~rank:0 ~tile:0 ~wave_cost:100.0 spend;
  Perturb.Model.after_compute m ~rank:0 ~work:10.0 spend;
  Alcotest.(check (list string)) "noise, straggler, pulse, periodic"
    [ "perturb.noise"; "perturb.straggler"; "perturb.pulse";
      "perturb.periodic" ]
    (List.map fst (log ()));
  Alcotest.(check (list (float 0.0))) "the deterministic delays"
    [ 7.0; 11.0; 13.0 ]
    (List.tl (List.map snd (log ())))

let test_model_spends_positive () =
  let drive spec recover =
    let m =
      Option.get (Perturb.Model.create ~perturb:spec ?recover ~ranks:4 ())
    in
    let spend, log = spend_log () in
    for wave = 0 to 11 do
      for rank = 0 to 3 do
        Perturb.Model.tile_begin m ~rank ~wave spend;
        Perturb.Model.before_compute m ~rank ~tile:wave ~wave_cost:5.0 spend;
        Perturb.Model.after_compute m ~rank
          ~work:(if rank = 0 then 0.0 else 20.0)
          spend;
        Perturb.Model.before_send m ~rank spend
      done
    done;
    for rank = 0 to 3 do
      Perturb.Model.before_allreduce m ~rank spend
    done;
    log ()
  in
  (* Zero-valued clauses, and a free policy whose kill lands on a
     checkpoint wave, leave nothing to spend. *)
  let zero_valued =
    Perturb.Spec.v ~seed:3 ~noise:(Uniform 0.0)
      ~link:{ prob = 0.5; delay = 0.0 }
      ~stragglers:[ { rank = 1; delay = 0.0 } ]
      ~pulses:[ { rank = 2; wave = 1; delay = 0.0 } ]
      ~periodic:{ period = 2; amplitude = 0.0 }
      ~failures:[ { rank = 3; after_tiles = 4 } ]
      ()
  in
  Alcotest.(check int) "zero-valued clauses spend nothing" 0
    (List.length (drive zero_valued (Some (Perturb.Recover.v 4))));
  let live =
    Perturb.Spec.v ~seed:3 ~noise:(Exponential 0.2)
      ~link:{ prob = 0.5; delay = 4.0 }
      ~stragglers:[ { rank = 1; delay = 2.0 } ]
      ~pulses:[ { rank = 2; wave = 1; delay = 9.0 } ]
      ~periodic:{ period = 2; amplitude = 3.0 }
      ~failures:[ { rank = 3; after_tiles = 5 } ]
      ~coll_noise:5.0 ()
  in
  let spent =
    drive live (Some (Perturb.Recover.v ~ckpt_cost:1.0 ~restart_cost:2.0 4))
  in
  Alcotest.(check bool) "live clauses spend" true (List.length spent > 50);
  Alcotest.(check bool) "spend never receives d <= 0" true
    (List.for_all (fun (_, d) -> d > 0.0) spent)

let test_model_kill_with_policy () =
  let spec = Perturb.Spec.v ~failures:[ { rank = 1; after_tiles = 6 } ] () in
  let policy = Perturb.Recover.v ~ckpt_cost:5.0 ~restart_cost:40.0 4 in
  let m =
    Option.get (Perturb.Model.create ~perturb:spec ~recover:policy ~ranks:2 ())
  in
  let spend, log = spend_log () in
  for wave = 0 to 9 do
    Perturb.Model.tile_begin m ~rank:1 ~wave spend;
    Perturb.Model.before_compute m ~rank:1 ~tile:wave ~wave_cost:3.0 spend
  done;
  let lost = Perturb.Recover.lost_waves policy ~fail_wave:6 in
  Alcotest.(check int) "waves since the wave-4 checkpoint" 2 lost;
  Alcotest.(check (list (pair string (float 0.0))))
    "checkpoint, restart, replay of the lost waves, checkpoint"
    [ ("recover.checkpoint", 5.0); ("recover.restart", 40.0);
      ("recover.replay", float_of_int lost *. 3.0);
      ("recover.checkpoint", 5.0) ]
    (log ());
  Alcotest.(check (list int)) "recovered" [ 1 ] (Perturb.Model.recovered m);
  Alcotest.(check int) "checkpoints counted" 2 (Perturb.Model.checkpoints m);
  let m = Option.get (Perturb.Model.create ~perturb:spec ~ranks:2 ()) in
  for tile = 0 to 5 do
    Perturb.Model.before_compute m ~rank:1 ~tile ~wave_cost:3.0 spend
  done;
  Alcotest.check_raises "without a policy the kill raises"
    (Perturb.Model.Killed { rank = 1; tile = 6 })
    (fun () ->
      Perturb.Model.before_compute m ~rank:1 ~tile:6 ~wave_cost:3.0 spend)

(* --- Zero-spec identity and seeded determinism on the simulator --- *)

module Sim_rec = Record.Wrap (Xtsim.Wavefront_sim.Backend.Substrate)

(* Per-rank message sequences of a (possibly perturbed) simulator run. *)
let sim_events ?perturb pg app =
  let cores = Proc_grid.cores pg in
  let machine =
    Xtsim.Machine.v ~cmp:Wgrid.Cmp.single_core Loggp.Params.xt4 pg
  in
  let engine = Xtsim.Engine.create () in
  let b = Xtsim.Wavefront_sim.Backend.create ?perturb engine machine app in
  let cfg = Wrun.Program.of_app pg app in
  let recs = Record.create ~ranks:cores in
  for rank = 0 to cores - 1 do
    Xtsim.Engine.spawn engine (fun () ->
        Wrun.Program.run_rank (module Sim_rec) (recs, b) cfg rank)
  done;
  ignore (Xtsim.Engine.run engine);
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
         (pair (pair (int_range 1 3) (int_range 1 3))
            (pair (int_range 1 6) (float_range 0.5 4.0)))
         (pair (int_range 0 2) (int_range 0 3))))

let pp_app_case ((cols, rows), (app : Wavefront_core.App_params.t)) =
  Fmt.str "%dx%d %a htile=%.2f %s" cols rows Data_grid.pp app.grid app.htile
    app.name

let machine_of pg =
  Xtsim.Machine.v ~cmp:Wgrid.Cmp.single_core Loggp.Params.xt4 pg

(* Satellite: a zero spec is invisible — the whole outcome record (elapsed
   times bitwise, event counts, per-rank stats) and every rank's message
   sequence are identical to running without a spec at all. *)
let prop_zero_spec_identity =
  QCheck.Test.make ~name:"zero perturbation spec is bitwise invisible"
    ~count:20
    (QCheck.make ~print:pp_app_case app_gen)
    (fun ((cols, rows), app) ->
      let pg = Proc_grid.v ~cols ~rows in
      let machine = machine_of pg in
      let base = Xtsim.Wavefront_sim.run machine app in
      let zero =
        Xtsim.Wavefront_sim.run ~perturb:Perturb.Spec.zero machine app
      in
      base = zero
      && sim_events pg app = sim_events ~perturb:Perturb.Spec.zero pg app)

let spec_gen =
  QCheck.Gen.(
    map
      (fun ((seed, amp), (delay, exp_noise)) ->
        let noise : Perturb.Spec.noise =
          if exp_noise then Exponential (amp /. 2.0) else Uniform amp
        in
        Perturb.Spec.v ~seed ~noise
          ~link:{ prob = 0.2; delay = 5.0 }
          ~stragglers:[ { rank = 0; delay } ]
          ())
      (pair
         (pair (int_range 0 1000) (float_range 0.01 0.5))
         (pair (float_range 0.0 40.0) bool)))

let pp_spec_case ((c, app), spec) =
  Fmt.str "%s [%a]" (pp_app_case (c, app)) Perturb.Spec.pp spec

(* Satellite: the same seeded spec twice gives the same simulation —
   elapsed bitwise, stats bitwise, sequences identical. *)
let prop_seeded_determinism =
  QCheck.Test.make ~name:"same seed, same perturbed simulation" ~count:20
    (QCheck.make ~print:pp_spec_case QCheck.Gen.(pair app_gen spec_gen))
    (fun (((cols, rows), app), spec) ->
      let pg = Proc_grid.v ~cols ~rows in
      let machine = machine_of pg in
      let a = Xtsim.Wavefront_sim.run ~perturb:spec machine app in
      let b = Xtsim.Wavefront_sim.run ~perturb:spec machine app in
      a = b
      && sim_events ~perturb:spec pg app = sim_events ~perturb:spec pg app)

(* --- The real kernel stays bitwise under timing perturbation --- *)

(* Satellite: injected sleeps perturb when things happen, never what is
   computed — a straggling, noisy real run still equals the sequential
   reference bitwise. *)
let test_real_straggler_bitwise () =
  let grid = Data_grid.v ~nx:6 ~ny:4 ~nz:4 in
  let pg = Proc_grid.v ~cols:2 ~rows:2 in
  let spec =
    Perturb.Spec.v ~seed:11 ~noise:(Uniform 0.3)
      ~stragglers:[ { rank = 1; delay = 30.0 } ]
      ()
  in
  let plan = Kernels.Sweep_exec.plan ~htile:2 ~perturb:spec grid pg in
  let out = Kernels.Sweep_exec.run plan in
  Alcotest.(check bool) "bitwise vs sequential" true
    (Kernels.Sweep_exec.gather plan out.blocks
    = Kernels.Sweep_exec.run_sequential plan)

(* --- Monotonicity: more perturbation never helps --- *)

let fixed_app = Apps.Sweep3d.params (Data_grid.v ~nx:24 ~ny:24 ~nz:8)
let fixed_pg = Proc_grid.v ~cols:4 ~rows:4

let fixed_cfg =
  Wavefront_core.Plugplay.config ~cmp:Wgrid.Cmp.single_core Loggp.Params.xt4
    ~cores:16

let sim_elapsed spec =
  (Xtsim.Wavefront_sim.run ~perturb:spec (machine_of fixed_pg) fixed_app)
    .elapsed

let check_nondecreasing what values =
  ignore
    (List.fold_left
       (fun prev (label, v) ->
         Alcotest.(check bool)
           (Fmt.str "%s non-decreasing at %s" what label)
           true
           (v >= prev -. 1e-9);
         v)
       neg_infinity values)

let test_monotone_in_noise () =
  let amps = [ 0.0; 0.1; 0.2; 0.4 ] in
  let spec a = Perturb.Spec.v ~seed:5 ~noise:(Uniform a) () in
  check_nondecreasing "estimate"
    (List.map
       (fun a ->
         ( Fmt.str "amp %.1f" a,
           Perturb.Estimate.time_per_iteration fixed_app fixed_cfg (spec a) ))
       amps);
  check_nondecreasing "simulated"
    (List.map (fun a -> (Fmt.str "amp %.1f" a, sim_elapsed (spec a))) amps)

let test_monotone_in_straggler_delay () =
  let delays = [ 0.0; 10.0; 50.0; 100.0 ] in
  let spec d =
    Perturb.Spec.v ~seed:5 ~stragglers:[ { rank = 5; delay = d } ] ()
  in
  check_nondecreasing "estimate"
    (List.map
       (fun d ->
         ( Fmt.str "delay %.0f" d,
           Perturb.Estimate.time_per_iteration fixed_app fixed_cfg (spec d) ))
       delays);
  check_nondecreasing "simulated"
    (List.map (fun d -> (Fmt.str "delay %.0f" d, sim_elapsed (spec d))) delays)

let test_monotone_in_link_delay () =
  let delays = [ 0.0; 2.0; 8.0; 20.0 ] in
  let spec d = Perturb.Spec.v ~seed:5 ~link:{ prob = 0.3; delay = d } () in
  check_nondecreasing "estimate"
    (List.map
       (fun d ->
         ( Fmt.str "delay %.0f" d,
           Perturb.Estimate.time_per_iteration fixed_app fixed_cfg (spec d) ))
       delays);
  check_nondecreasing "simulated"
    (List.map (fun d -> (Fmt.str "delay %.0f" d, sim_elapsed (spec d))) delays)

(* --- Goldens --- *)

let golden = Alcotest.(float 1e-3)

(* The estimate's terms for one frozen configuration; a change here is a
   model change and must be deliberate. *)
let test_estimate_golden () =
  let spec =
    Perturb.Spec.v ~seed:3 ~noise:(Uniform 0.25)
      ~link:{ prob = 0.1; delay = 4.0 }
      ~stragglers:[ { rank = 1; delay = 40.0 } ]
      ()
  in
  let b = Perturb.Estimate.iteration fixed_app fixed_cfg spec in
  Alcotest.check golden "base" 2996.7208 b.base;
  Alcotest.check golden "noise" 270.0 b.noise;
  Alcotest.check golden "link" 40.0 b.link;
  Alcotest.check golden "straggler" 1280.0 b.straggler;
  Alcotest.check golden "total" 4586.7208 b.total

(* One full `wavefront perturb` report, frozen verbatim: the simulator is
   deterministic in simulated time and the PRNG is version-stable, so the
   rendered tables and rank x wave wait heatmaps are reproducible to the
   byte (real runs excluded). *)
let report_golden =
  {golden|
== [PERTURB-COMPARE] Perturbed iteration time: model estimate vs simulated vs real (us) ==
+--------------------+--------+-----------+------+
| quantity           | model  | simulated | real |
+====================+========+===========+======+
| unperturbed T_iter | 2996.7 | 2908.5    | -    |
| perturbed T_iter   | 4546.7 | 4302.3    | -    |
| slowdown           | +51.7% | +47.9%    | -    |
+--------------------+--------+-----------+------+
  note: spec: seed=3 noise=uniform:0.25 straggler=1:40
  note: dataflow (stragglers always last): 16 ranks completed, 768 messages


== [PERTURB-INJECTION] Injected delay: absorbed in pipeline slack vs propagated ==
+-----------------------------+-------+---------------+------------+
| source                      | spans | injected (us) | model (us) |
+=============================+=======+===============+============+
| perturb.noise               | 512   | 2712.9        | 270        |
| perturb.straggler           | 32    | 1280          | 1280       |
| perturb.link                | 0     | 0             | 0          |
| injected total              | -     | 3992.9        | 1550       |
| elapsed growth (propagated) | -     | 1393.8        | -          |
| absorbed in slack           | -     | 2599.1        | -          |
+-----------------------------+-------+---------------+------------+
  note: model column: the estimate's critical-path charge for the term
  note: absorbed = injected - elapsed growth; negative means the perturbation cost more than the injected time (lost overlap)

unperturbed wait by rank x wave:
wait per (rank, wave) cell, us; scale ' ' = 0 .. '@' = 751.99; last column = epilogue
r0      |        =       +       =        |
r1      |.       :       *       -        |
r2      |.       .       #       .        |
r3      |:               @                |
r4      |.       =       -       =        |
r5      |.       -       =       -        |
r6      |:       .       +       .        |
r7      |-               #                |
r8      |.       =       .       =        |
r9      |:       -       :       -        |
r10     |-       .       =       .        |
r11     |-               +                |
r12     |:       =               =        |
r13     |-       -       .       :        |
r14     |-       .       :       .        |
r15     |=               =                |

perturbed wait by rank x wave:
wait per (rank, wave) cell, us; scale ' ' = 0 .. '@' = 1103.03; last column = epilogue
r0      |        *       -       *        |
r1      |        :       =       :        |
r2      |.       .       %       .        |
r3      |:               @                |
r4      |.       +       :       -        |
r5      |.       :       -       :        |
r6      |:       .       *       .        |
r7      |:               #                |
r8      |.       +       .       -        |
r9      |:       :       :       :        |
r10     |:       .       +       .        |
r11     |-               *                |
r12     |:       +               -        |
r13     |:       :       .       :        |
r14     |-       .       =       .        |
r15     |-               +                |
|golden}

let test_report_golden () =
  let spec =
    Perturb.Spec.v ~seed:3 ~noise:(Uniform 0.25)
      ~stragglers:[ { rank = 1; delay = 40.0 } ]
      ()
  in
  let r = Harness.Perturb_report.run fixed_cfg fixed_app spec in
  let rendered = Fmt.str "%a" Harness.Perturb_report.pp r in
  (* The trailing runtime: section is host-side wall clock — real time,
     not simulated — so the golden stops where determinism stops. *)
  let deterministic =
    let sub = "\nruntime:" in
    let n = String.length rendered and m = String.length sub in
    let rec find i =
      if i + m > n then rendered
      else if String.sub rendered i m = sub then String.sub rendered 0 i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check string) "report" report_golden deterministic

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_zero_spec_identity; prop_seeded_determinism ]

let suite =
  [
    ( "perturb.prng",
      [
        Alcotest.test_case "deterministic per (seed, stream)" `Quick
          test_prng_deterministic;
        Alcotest.test_case "streams decorrelated" `Quick
          test_prng_streams_decorrelated;
        Alcotest.test_case "version-stable words" `Quick
          test_prng_version_stable;
      ] );
    ( "perturb.spec",
      [
        Alcotest.test_case "parses every clause" `Quick test_spec_parse;
        Alcotest.test_case "round-trips through to_string" `Quick
          test_spec_round_trip;
        Alcotest.test_case "rejects malformed clauses" `Quick test_spec_rejects;
        Alcotest.test_case "zero spec detection" `Quick test_spec_zero;
        Alcotest.test_case "rejects non-finite values" `Quick
          test_spec_rejects_non_finite;
        QCheck_alcotest.to_alcotest prop_spec_one_validator;
      ] );
    ( "perturb.model",
      [
        Alcotest.test_case "nothing to inject is None" `Quick
          test_model_nothing_to_inject;
        Alcotest.test_case "compute-side order" `Quick
          test_model_compute_order;
        Alcotest.test_case "spend never receives d <= 0" `Quick
          test_model_spends_positive;
        Alcotest.test_case "kill under a policy: restart then replay" `Quick
          test_model_kill_with_policy;
      ] );
    ( "perturb.real",
      [
        Alcotest.test_case "straggling run stays bitwise" `Quick
          test_real_straggler_bitwise;
      ] );
    ( "perturb.monotone",
      [
        Alcotest.test_case "noise amplitude" `Quick test_monotone_in_noise;
        Alcotest.test_case "straggler delay" `Quick
          test_monotone_in_straggler_delay;
        Alcotest.test_case "link delay" `Quick test_monotone_in_link_delay;
      ] );
    ( "perturb.golden",
      [
        Alcotest.test_case "estimate terms" `Quick test_estimate_golden;
        Alcotest.test_case "perturb report" `Quick test_report_golden;
      ] );
    ("perturb.properties", props);
  ]
