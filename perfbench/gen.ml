(* Seeded workload inputs. Every request the benchmark sends is drawn
   from a finite pool that is a pure function of the seed, so the oracle
   evaluates each distinct request once, and a run's figures depend on
   the seed only through the pool. Pools are stratified (one draw per
   stratum of the input range) so that different seeds give different
   inputs with the same cost profile: the run-to-run spread then
   measures the program, not the luck of the draw. *)

(* The applications on the data grids of the paper's Section 5 studies
   ([Wgrid.Data_grid]): LU class E, Sweep3D at 20 million and 10^9
   cells, Chimaera 240^3 and 240x240x960. *)
let paper_grids =
  Wgrid.Data_grid.
    [|
      ("lu", lu_class_e); ("sweep3d", sweep3d_20m); ("sweep3d", sweep3d_1b);
      ("chimaera", chimaera_240); ("chimaera", chimaera_tall);
    |]

let cpns = [| 1; 2; 4 |]

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A near-square core count close to [target]: rows x cols with
   cols >= rows, so [Proc_grid.of_cores] never degenerates to a 1xP
   strip on a prime. *)
let near_square target =
  let rows = max 1 (int_of_float (Float.round (sqrt target))) in
  let cols = max rows (int_of_float (Float.round (target /. float_of_int rows))) in
  rows * cols

type predict = { p_body : string; p_cores : int }

(* The app of the [i]th entry of a pool. Entries cycle through
   [paper_grids], so every seed has the same mix of apps and grids; a
   grid with fewer than one column of cells per rank of the [cores]
   decomposition passes to the next (the Chimaera grids are 240 cells
   wide, so they drop out above 240 x 240 ranks). *)
let app_json ~cores i =
  let pg = Wgrid.Proc_grid.of_cores cores in
  let rec go j =
    let name, g = paper_grids.(j mod Array.length paper_grids) in
    if pg.cols > g.Wgrid.Data_grid.nx || pg.rows > g.ny then go (j + 1)
    else Printf.sprintf {|{"name":"%s","nx":%d,"ny":%d,"nz":%d}|} name g.nx g.ny g.nz
  in
  go i

(* Cores per node cycle too; 3 and 5 are coprime, so 15 consecutive
   entries hold every (app, cores per node) pair. *)
let cpn i = cpns.(i mod Array.length cpns)

let predict_body i ~cores ~validate =
  Printf.sprintf
    {|{"app":%s,"machine":{"platform":"xt4","cores":%d,"cores_per_node":%d},"validate":%b}|}
    (app_json ~cores i) cores (cpn i) validate

(* Cores log-uniform over [16, 65536], one draw per stratum. *)
let predict_pool ~seed ~salt ~n ~validate =
  let st = rng seed salt in
  Array.init n (fun i ->
      let u = (float_of_int i +. Random.State.float st 1.0) /. float_of_int n in
      let cores = near_square (2.0 ** (4.0 +. (12.0 *. u))) in
      let cores = min 65_536 (max 16 cores) in
      { p_body = predict_body i ~cores ~validate; p_cores = cores })

type sweep = {
  s_body : string;
  s_app : string;  (* the "app" object of the body *)
  s_cpn : int;
  s_grids : (int * int) array;
  s_ckpt_cost : float;
  s_restart_cost : float;
  s_failures : int;
  s_points : int;
  s_cells : int;  (* sum over points of cols x rows *)
  s_shared : int;  (* points whose (htile, grid) already occurred *)
}

(* Sweep shape. Htile takes every value of the paper's Figure 5 study
   (1..10, [Harness.Exp_design.htiles]). K, the checkpoint interval in
   waves, takes four values: an assumption of this benchmark, since the
   paper has no checkpointing study; four is "several K per (Htile,
   grid)", so three points in four repeat an (Htile, grid) pair. The
   grid list has one of [grid_counts] shapes, one sweep per count, so a
   sweep has 10 x 4 x g = 280 .. 4080 points, inside the daemon's 4096
   limit. *)
let htiles = Array.of_list (List.map float_of_int Harness.Exp_design.htiles)
let ks = [| 4; 8; 12; 16 |]
let grid_counts = [| 7; 13; 26; 51; 102 |]

(* Grid shapes <= 64x64 whose areas are stratified over [1, 4096]: the
   summed area of a sweep, which sets its cost, barely moves with the
   seed while the shapes themselves do. *)
let grids st g =
  Array.init g (fun j ->
      let area =
        4096.0 *. (float_of_int j +. Random.State.float st 1.0) /. float_of_int g
      in
      let lo = max 1 (int_of_float (Float.ceil (area /. 64.0))) in
      let hi = min 64 (max lo (int_of_float area)) in
      let rows = lo + Random.State.int st (hi - lo + 1) in
      let cols = min 64 (max 1 (int_of_float (Float.round (area /. float_of_int rows)))) in
      (cols, rows))

(* The [i]th sweep has [g] grids and the [i]th app of [paper_grids]:
   every seed pairs each sweep size with the same app, so that a seed
   moves the grid shapes but not the cost of a pass. *)
let sweep_of st i g =
  let gs = shuffle st (grids st g) in
  let app = app_json ~cores:1 i and cpn = cpn i in
  let ckpt = 50 + Random.State.int st 150
  and restart = 500 + Random.State.int st 1500
  and failures = 1 + Random.State.int st 3 in
  let list f a = String.concat "," (Array.to_list (Array.map f a)) in
  let body =
    Printf.sprintf
      {|{"app":%s,"machine":{"platform":"xt4","cores_per_node":%d},"htile":[%s],"grids":[%s],"k":[%s],"ckpt_cost":%d,"restart_cost":%d,"failures":%d}|}
      app cpn
      (list (Printf.sprintf "%g") htiles)
      (list (fun (c, r) -> Printf.sprintf "[%d,%d]" c r) gs)
      (list string_of_int ks) ckpt restart failures
  in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun h -> Array.iter (fun gr -> Hashtbl.replace distinct (h, gr) ()) gs) htiles;
  let points = Array.length htiles * g * Array.length ks in
  {
    s_body = body;
    s_app = app;
    s_cpn = cpn;
    s_grids = gs;
    s_ckpt_cost = float_of_int ckpt;
    s_restart_cost = float_of_int restart;
    s_failures = failures;
    s_points = points;
    s_cells = Array.fold_left (fun a (c, r) -> a + (c * r)) 0 gs * points / g;
    s_shared = points - Hashtbl.length distinct;
  }

let sweep_pool ~seed =
  let st = rng seed 3 in
  Array.mapi (sweep_of st) grid_counts

(* --- schedules -------------------------------------------------------- *)

type op = Predict of int | Validate of int | Sweep of int

(* An endless stream that hands out the elements of [batch ()], then of
   a fresh [batch ()], and so on. *)
let refilling batch =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := batch ();
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

(* Every index of [0, n) once per pass, each pass in a fresh order: the
   mix of any long run matches the pool's. *)
let passes st n = refilling (fun () -> shuffle st (Array.init n Fun.id))

let predict_pool_size = 240
let validate_pool_size = 48

(* One validated predict per 12 plain ones: an assumption of this
   benchmark, not a figure from the paper. A validated predict costs
   tens of plain ones, so this share gives a 30 s window a few hundred
   of them, enough for a steady median, while plain predicts stay most
   of the requests. *)
let design_predicts_per_validate = 12

(* A client's closed-loop request stream. predict: both clients send
   plain predicts. design: client 0 sends sweeps, walking [grid_counts]
   one pass at a time; client 1 sends plain predicts with one validated
   predict per [design_predicts_per_validate], so predict latency is
   measured while a sweep always holds a worker. *)
let schedule ~seed ~client kind =
  let st = rng seed (100 + client) in
  match (kind, client) with
  | `Predict, _ ->
      let p = passes st predict_pool_size in
      fun () -> Predict (p ())
  | `Design, 0 ->
      let s = passes st (Array.length grid_counts) in
      fun () -> Sweep (s ())
  | `Design, _ ->
      let v = passes st validate_pool_size and p = passes st predict_pool_size in
      refilling (fun () ->
          shuffle st
            (Array.init (design_predicts_per_validate + 1) (fun i ->
                 if i = 0 then Validate (v ()) else Predict (p ()))))

type pools = {
  predicts : predict array;
  validates : predict array;
  sweeps : sweep array;
}

let pools ~seed =
  {
    predicts = predict_pool ~seed ~salt:1 ~n:predict_pool_size ~validate:false;
    validates = predict_pool ~seed ~salt:2 ~n:validate_pool_size ~validate:true;
    sweeps = sweep_pool ~seed;
  }

let body pools = function
  | Predict i -> ("/v1/predict", pools.predicts.(i).p_body)
  | Validate i -> ("/v1/predict", pools.validates.(i).p_body)
  | Sweep i -> ("/v1/sweep", pools.sweeps.(i).s_body)
