(* Tests for the application presets (Table 3 instantiations). *)

open Wavefront_core

let xt4 = Loggp.Params.xt4

let test_table3_structure () =
  let check name app nsweeps nfull ndiag htile wg_pre_zero =
    let c = App_params.counts app in
    Alcotest.(check int) (name ^ " nsweeps") nsweeps c.nsweeps;
    Alcotest.(check int) (name ^ " nfull") nfull c.nfull;
    Alcotest.(check int) (name ^ " ndiag") ndiag c.ndiag;
    Alcotest.(check (float 1e-9)) (name ^ " htile") htile app.App_params.htile;
    Alcotest.(check bool)
      (name ^ " wg_pre")
      wg_pre_zero
      (app.App_params.wg_pre = 0.0)
  in
  check "LU" (Apps.Lu.class_e ()) 2 2 0 1.0 false;
  check "Sweep3D" (Apps.Sweep3d.p1b ()) 8 2 2 2.0 true;
  check "Chimaera" (Apps.Chimaera.p240 ()) 8 4 2 1.0 true

let test_lu_classes () =
  List.iter
    (fun (cls, size) ->
      let app = Apps.Lu.of_class cls in
      Alcotest.(check int)
        (Printf.sprintf "class size %d" size)
        (size * size * size)
        (Wgrid.Data_grid.cells app.App_params.grid))
    [ (Apps.Lu.A, 64); (B, 102); (C, 162); (D, 408); (E, 1020) ];
  Alcotest.(check int) "class D iterations" 300
    (Apps.Lu.of_class D).App_params.iterations

let test_sweep3d_htile_follows_mk () =
  let app = Apps.Sweep3d.params ~mk:10 ~mmi:3 ~mmo:6 Wgrid.Data_grid.sweep3d_20m in
  Alcotest.(check (float 1e-9)) "Htile = mk*mmi/mmo" 5.0 app.App_params.htile;
  (* Message payload is 8 bytes per angle over all mmo angles. *)
  Alcotest.(check (float 1e-9)) "payload" 48.0 app.App_params.bytes_per_cell_ew

let test_chimaera_payload () =
  let app = Apps.Chimaera.p240 () in
  Alcotest.(check (float 1e-9)) "10 angles x 8B" 80.0
    app.App_params.bytes_per_cell_ew;
  Alcotest.(check int) "iterations" 419 app.App_params.iterations

let test_nonwavefront_kinds () =
  let kind (app : App_params.t) =
    match app.nonwavefront with
    | Stencil _ -> "stencil"
    | Allreduce { count; _ } -> Printf.sprintf "allreduce x%d" count
    | No_op -> "none"
    | Fixed _ -> "fixed"
  in
  Alcotest.(check string) "LU" "stencil" (kind (Apps.Lu.class_e ()));
  Alcotest.(check string) "Sweep3D" "allreduce x2" (kind (Apps.Sweep3d.p1b ()));
  Alcotest.(check string) "Chimaera" "allreduce x1" (kind (Apps.Chimaera.p240 ()))

let test_weak_scaling_builder () =
  let app = Apps.Sweep3d.weak_4x4x1000 ~cores:1024 () in
  let pg = Wgrid.Proc_grid.of_cores 1024 in
  Alcotest.(check (float 1e-9)) "4 cells/proc in x" 4.0
    (Wgrid.Decomp.cells_x app.App_params.grid pg);
  Alcotest.(check (float 1e-9)) "4 cells/proc in y" 4.0
    (Wgrid.Decomp.cells_y app.App_params.grid pg);
  Alcotest.(check int) "Nz" 1000 app.App_params.grid.nz

let test_custom_defaults () =
  let app = Apps.Custom.params ~wg:1.0 (Wgrid.Data_grid.cube 32) in
  let c = App_params.counts app in
  Alcotest.(check int) "default LU-like sweeps" 2 c.nsweeps;
  Alcotest.(check int) "default nfull" 2 c.nfull

let test_validation_rejects_bad_inputs () =
  Alcotest.check_raises "zero wg"
    (Invalid_argument "App_params.v: wg must be positive") (fun () ->
      ignore (Apps.Custom.params ~wg:0.0 (Wgrid.Data_grid.cube 8)));
  Alcotest.check_raises "bad htile"
    (Invalid_argument "App_params.with_htile: htile must be positive")
    (fun () ->
      ignore (App_params.with_htile (Apps.Chimaera.p240 ()) 0.0))

let prop_presets_model_everywhere =
  (* Every preset yields a finite positive prediction on every platform
     preset at any sane scale: the plug-and-play contract. *)
  QCheck.Test.make ~name:"every preset models on every platform" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl [ 0; 1; 2 ]) (pair (oneofl [ 16; 256; 4096 ]) (int_range 0 3))))
    (fun (app_ix, (cores, plat_ix)) ->
      let app =
        List.nth
          [ Apps.Lu.class_e (); Apps.Sweep3d.p20m (); Apps.Chimaera.p240 () ]
          app_ix
      in
      let platform = List.nth Loggp.Params.presets plat_ix in
      let t =
        Plugplay.time_per_iteration app (Plugplay.config platform ~cores)
      in
      Float.is_finite t && t > 0.0)

let props = List.map QCheck_alcotest.to_alcotest [ prop_presets_model_everywhere ]

let suite =
  [
    ( "apps.presets",
      [
        Alcotest.test_case "Table 3 structure" `Quick test_table3_structure;
        Alcotest.test_case "NAS LU classes" `Quick test_lu_classes;
        Alcotest.test_case "Sweep3D Htile from mk" `Quick
          test_sweep3d_htile_follows_mk;
        Alcotest.test_case "Chimaera payload" `Quick test_chimaera_payload;
        Alcotest.test_case "non-wavefront kinds" `Quick
          test_nonwavefront_kinds;
        Alcotest.test_case "weak-scaling builder" `Quick
          test_weak_scaling_builder;
        Alcotest.test_case "custom defaults" `Quick test_custom_defaults;
        Alcotest.test_case "input validation" `Quick
          test_validation_rejects_bad_inputs;
      ] );
    ("apps.properties", props);
  ]
