(* Tests for the data/processor grid decomposition and the CMP node
   mapping (paper Figure 1, Section 4.3, Table 6). *)

open Wgrid

let feq = Alcotest.float 1e-9

(* --- Data grid --- *)

let test_data_grid () =
  let g = Data_grid.v ~nx:240 ~ny:240 ~nz:960 in
  Alcotest.(check int) "cells" (240 * 240 * 960) (Data_grid.cells g);
  Alcotest.(check int) "cube" (1_000_000_000) Data_grid.(cells (cube 1000))

let test_data_grid_invalid () =
  Alcotest.check_raises "zero dim"
    (Invalid_argument "Data_grid.v: dimensions must be >= 1") (fun () ->
      ignore (Data_grid.v ~nx:0 ~ny:1 ~nz:1))

let test_workload_sizes () =
  Alcotest.(check bool) "20M close" true
    (abs (Data_grid.cells Data_grid.sweep3d_20m - 20_000_000) < 100_000)

(* --- Processor grid --- *)

let test_of_cores_square () =
  let g = Proc_grid.of_cores 4096 in
  Alcotest.(check int) "cols" 64 g.cols;
  Alcotest.(check int) "rows" 64 g.rows

let test_of_cores_pow2 () =
  let g = Proc_grid.of_cores 8192 in
  Alcotest.(check int) "cols" 128 g.cols;
  Alcotest.(check int) "rows" 64 g.rows

let test_corners () =
  let g = Proc_grid.v ~cols:8 ~rows:4 in
  Alcotest.(check (pair int int)) "C11" (1, 1) (Proc_grid.corner_coords g C11);
  Alcotest.(check (pair int int)) "Cnm" (8, 4) (Proc_grid.corner_coords g Cnm);
  Alcotest.(check (pair int int)) "Cn1" (8, 1) (Proc_grid.corner_coords g Cn1);
  Alcotest.(check (pair int int)) "C1m" (1, 4) (Proc_grid.corner_coords g C1m)

let test_corner_relations () =
  Alcotest.(check bool) "opposite of C11" true (Proc_grid.opposite C11 = Cnm);
  Alcotest.(check bool) "diag" true (Proc_grid.is_diagonal_of C11 Cn1);
  Alcotest.(check bool) "diag" true (Proc_grid.is_diagonal_of C11 C1m);
  Alcotest.(check bool) "not diag" false (Proc_grid.is_diagonal_of C11 Cnm);
  List.iter
    (fun c ->
      Alcotest.(check bool) "opposite involutive" true
        (Proc_grid.(opposite (opposite c)) = c))
    Proc_grid.all_corners

let prop_rank_coords_roundtrip =
  QCheck.Test.make ~name:"rank/coords round-trip" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 1 64))
    (fun (cols, rows) ->
      let g = Proc_grid.v ~cols ~rows in
      let ok = ref true in
      for r = 0 to Proc_grid.cores g - 1 do
        if Proc_grid.rank g (Proc_grid.coords g r) <> r then ok := false
      done;
      !ok)

let prop_of_cores_exact =
  QCheck.Test.make ~name:"of_cores produces exactly the core count"
    ~count:200
    QCheck.(int_range 1 200_000)
    (fun p ->
      let g = Proc_grid.of_cores p in
      Proc_grid.cores g = p && g.cols >= g.rows)

(* --- Decomposition --- *)

let test_cells_per_proc () =
  let g = Data_grid.chimaera_240 in
  let p = Proc_grid.of_cores 4096 in
  Alcotest.check feq "Nx/n" (240.0 /. 64.0) (Decomp.cells_x g p);
  Alcotest.check feq "Ny/m" (240.0 /. 64.0) (Decomp.cells_y g p)

let test_blocks_balanced () =
  let bs = Decomp.blocks ~cells:10 ~parts:3 in
  Alcotest.(check (list int)) "blocks" [ 4; 3; 3 ] bs

let prop_blocks_sum =
  QCheck.Test.make ~name:"blocks partition all cells" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 1 128))
    (fun (cells, parts) ->
      let bs = Decomp.blocks ~cells ~parts in
      List.fold_left ( + ) 0 bs = cells
      && List.length bs = parts
      && List.for_all (fun b -> b >= cells / parts) bs)

let prop_block_of_matches_blocks =
  QCheck.Test.make ~name:"block_of agrees with blocks" ~count:100
    QCheck.(pair (int_range 1 5_000) (int_range 1 64))
    (fun (cells, parts) ->
      let bs = Decomp.blocks ~cells ~parts in
      List.for_all2
        (fun b i -> b = Decomp.block_of ~cells ~parts ~index:i)
        bs
        (List.init parts Fun.id))

let prop_offset_of_closed_form =
  QCheck.Test.make ~name:"offset_of is the prefix sum of block_of" ~count:100
    QCheck.(pair (int_range 1 5_000) (int_range 1 64))
    (fun (cells, parts) ->
      let prefix = ref 0 in
      let ok = ref (Decomp.offset_of ~cells ~parts ~index:parts = cells) in
      for index = 0 to parts - 1 do
        ok := !ok && Decomp.offset_of ~cells ~parts ~index = !prefix;
        prefix := !prefix + Decomp.block_of ~cells ~parts ~index
      done;
      !ok)

let test_message_size () =
  (* Chimaera on 64x64: 8B * 10 angles * Htile=1 * 240/64 cells = 300B. *)
  let size = Decomp.message_size ~bytes_per_cell:80.0 ~htile:1.0 ~extent:3.75 in
  Alcotest.(check int) "EW message" 300 size

(* --- Tiles --- *)

let test_htile_sweep3d () =
  Alcotest.check feq "mk=10 mmi=3 mmo=6" 5.0
    (Tile.htile_sweep3d ~mk:10 ~mmi:3 ~mmo:6);
  Alcotest.check feq "mk=4 mmi=3 mmo=6" 2.0
    (Tile.htile_sweep3d ~mk:4 ~mmi:3 ~mmo:6)

let test_ntiles () =
  Alcotest.check feq "1000/2" 500.0 (Tile.ntiles ~nz:1000 ~htile:2.0);
  Alcotest.(check int) "ceil" 334 (Tile.ntiles_int ~nz:1000 ~htile:3.0)

let test_kblocks () =
  Alcotest.(check int) "kblocks" 100 (Tile.kblocks ~nz:1000 ~mk:10);
  Alcotest.(check int) "kblocks ceil" 101 (Tile.kblocks ~nz:1001 ~mk:10)

let test_htile_invalid () =
  Alcotest.check_raises "mmi > mmo"
    (Invalid_argument "Tile.htile_sweep3d: mmi must be <= mmo") (fun () ->
      ignore (Tile.htile_sweep3d ~mk:1 ~mmi:7 ~mmo:6))

(* --- CMP node mapping (Table 6) --- *)

let test_same_node_1x2 () =
  let c = Cmp.v ~cx:1 ~cy:2 in
  Alcotest.(check bool) "vertical pair" true (Cmp.same_node c (1, 1) (1, 2));
  Alcotest.(check bool) "next pair" false (Cmp.same_node c (1, 2) (1, 3));
  Alcotest.(check bool) "horizontal" false (Cmp.same_node c (1, 1) (2, 1))

let test_link_locality_2x2 () =
  let c = Cmp.v ~cx:2 ~cy:2 in
  (* Core (1,1): E to (2,1) on-chip, S to (1,2) on-chip. *)
  Alcotest.(check bool) "E on-chip" true
    (Cmp.link_locality c ~src:(1, 1) E = Loggp.Comm_model.On_chip);
  Alcotest.(check bool) "S on-chip" true
    (Cmp.link_locality c ~src:(1, 1) S = Loggp.Comm_model.On_chip);
  (* Core (2,2): E to (3,2) off-node, S to (2,3) off-node. *)
  Alcotest.(check bool) "E off-node" true
    (Cmp.link_locality c ~src:(2, 2) E = Loggp.Comm_model.Off_node);
  Alcotest.(check bool) "S off-node" true
    (Cmp.link_locality c ~src:(2, 2) S = Loggp.Comm_model.Off_node)

(* Table 6's literal rules, checked against link_locality over a grid:
   SendE by core (i,j) is on-chip iff i mod Cx <> 0 (and Cx <> 1), etc. *)
let test_table6_rules () =
  let check_rule cmp =
    let { Cmp.cx; cy } = cmp in
    for i = 1 to 8 do
      for j = 1 to 8 do
        let e = Cmp.link_locality cmp ~src:(i, j) E = Loggp.Comm_model.On_chip in
        let w = Cmp.link_locality cmp ~src:(i, j) W = Loggp.Comm_model.On_chip in
        let s = Cmp.link_locality cmp ~src:(i, j) S = Loggp.Comm_model.On_chip in
        let n = Cmp.link_locality cmp ~src:(i, j) N = Loggp.Comm_model.On_chip in
        Alcotest.(check bool) "E rule" (i mod cx <> 0 && cx <> 1) e;
        Alcotest.(check bool) "W rule" (i mod cx <> 1 && cx <> 1) w;
        Alcotest.(check bool) "S rule" (j mod cy <> 0 && cy <> 1) s;
        Alcotest.(check bool) "N rule" (j mod cy <> 1 && cy <> 1) n
      done
    done
  in
  List.iter check_rule
    [ Cmp.v ~cx:1 ~cy:2; Cmp.v ~cx:2 ~cy:2; Cmp.v ~cx:2 ~cy:4; Cmp.v ~cx:4 ~cy:4 ]

let test_of_cores_per_node () =
  let c = Cmp.of_cores_per_node 8 in
  Alcotest.(check int) "cx" 2 c.cx;
  Alcotest.(check int) "cy" 4 c.cy;
  Alcotest.(check int) "cores" 16 (Cmp.cores_per_node (Cmp.of_cores_per_node 16))

let test_nodes_for () =
  let g = Proc_grid.v ~cols:8 ~rows:8 in
  Alcotest.(check int) "dual-core" 32 (Cmp.nodes_for g (Cmp.v ~cx:1 ~cy:2));
  Alcotest.(check int) "quad-core" 16 (Cmp.nodes_for g (Cmp.v ~cx:2 ~cy:2));
  Alcotest.(check int) "uneven" 6 (Cmp.nodes_for (Proc_grid.v ~cols:3 ~rows:5) (Cmp.v ~cx:2 ~cy:2))

(* The batched engine's locality rule, integer arithmetic on 0-based
   rank coordinates, against the node mapping on every link of grids
   whose sides are not all multiples of the node rectangle. *)
let test_costs_locality () =
  let app = Apps.Sweep3d.params (Data_grid.cube 12) in
  List.iter
    (fun (cols, rows) ->
      let pg = Proc_grid.v ~cols ~rows in
      List.iter
        (fun cpn ->
          let cmp = Cmp.of_cores_per_node cpn in
          let costs = Wrun.Costs.loggp ~cmp Loggp.Params.xt4 pg app in
          for src = 0 to Proc_grid.cores pg - 1 do
            let a = Proc_grid.coords pg src in
            List.iter
              (fun d ->
                let b = Cmp.neighbor d a in
                if Proc_grid.contains pg b then begin
                  let dst = Proc_grid.rank pg b in
                  Alcotest.(check bool)
                    (Fmt.str "%dx%d, %d cores/node: %d -> %d" cols rows cpn
                       src dst)
                    (Cmp.same_node cmp a b)
                    (Wrun.Costs.locality costs ~src ~dst
                    = Loggp.Comm_model.On_chip)
                end)
              Cmp.all_dirs
          done)
        [ 1; 2; 4; 8; 16 ])
    [ (7, 5); (9, 4); (6, 1); (1, 6) ]

let prop_locality_symmetric =
  QCheck.Test.make ~name:"E/W and N/S localities are symmetric" ~count:200
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 32) (int_range 1 32))
    (fun (cx, cy, i, j) ->
      let c = Cmp.v ~cx ~cy in
      Cmp.link_locality c ~src:(i, j) E
      = Cmp.link_locality c ~src:(i + 1, j) W
      && Cmp.link_locality c ~src:(i, j) S
         = Cmp.link_locality c ~src:(i, j + 1) N)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rank_coords_roundtrip;
      prop_of_cores_exact;
      prop_blocks_sum;
      prop_block_of_matches_blocks;
      prop_offset_of_closed_form;
      prop_locality_symmetric;
    ]

let suite =
  [
    ( "grid.data",
      [
        Alcotest.test_case "cells" `Quick test_data_grid;
        Alcotest.test_case "invalid" `Quick test_data_grid_invalid;
        Alcotest.test_case "paper workloads" `Quick test_workload_sizes;
      ] );
    ( "grid.proc",
      [
        Alcotest.test_case "of_cores square" `Quick test_of_cores_square;
        Alcotest.test_case "of_cores power of two" `Quick test_of_cores_pow2;
        Alcotest.test_case "corners" `Quick test_corners;
        Alcotest.test_case "corner relations" `Quick test_corner_relations;
      ] );
    ( "grid.decomp",
      [
        Alcotest.test_case "cells per proc" `Quick test_cells_per_proc;
        Alcotest.test_case "balanced blocks" `Quick test_blocks_balanced;
        Alcotest.test_case "message size" `Quick test_message_size;
      ] );
    ( "grid.tile",
      [
        Alcotest.test_case "Sweep3D Htile" `Quick test_htile_sweep3d;
        Alcotest.test_case "ntiles" `Quick test_ntiles;
        Alcotest.test_case "kblocks" `Quick test_kblocks;
        Alcotest.test_case "invalid htile" `Quick test_htile_invalid;
      ] );
    ( "grid.cmp",
      [
        Alcotest.test_case "1x2 node pairs" `Quick test_same_node_1x2;
        Alcotest.test_case "2x2 localities" `Quick test_link_locality_2x2;
        Alcotest.test_case "Table 6 rules" `Quick test_table6_rules;
        Alcotest.test_case "of_cores_per_node" `Quick test_of_cores_per_node;
        Alcotest.test_case "nodes_for" `Quick test_nodes_for;
        Alcotest.test_case "Costs.locality is same_node" `Quick
          test_costs_locality;
      ] );
    ("grid.properties", props);
  ]
