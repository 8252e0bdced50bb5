(* JSON in via Obs.Json (hostile input -> Error, never an exception);
   JSON out via Printf.bprintf into a caller-owned buffer ([%.17g] so
   predictions round-trip bit-exactly). *)

module Json = Obs.Json
module App_params = Wavefront_core.App_params
module Plugplay = Wavefront_core.Plugplay

(* --- parsing helpers ------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let obj_member name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let get_obj name j =
  match obj_member name j with
  | Json.Obj _ as o -> o
  | _ -> fail "field %S must be an object" name

let get_num name j =
  match obj_member name j with
  | Json.Num x when Float.is_finite x -> x
  | _ -> fail "field %S must be a finite number" name

let get_int name j =
  let x = get_num name j in
  if Float.is_integer x then int_of_float x
  else fail "field %S must be an integer" name

let get_str name j =
  match obj_member name j with
  | Json.Str s -> s
  | _ -> fail "field %S must be a string" name

let opt_member name j f = match Json.member name j with
  | None | Some Json.Null -> None
  | Some _ -> Some (f name j)

let get_bool_opt name j =
  match Json.member name j with
  | None | Some Json.Null -> false
  | Some (Json.Bool b) -> b
  | Some _ -> fail "field %S must be a boolean" name

let get_list name j =
  match obj_member name j with
  | Json.List l when l <> [] -> l
  | Json.List [] -> fail "field %S must be a non-empty list" name
  | _ -> fail "field %S must be a list" name

let num_item name = function
  | Json.Num x when Float.is_finite x -> x
  | _ -> fail "elements of %S must be finite numbers" name

let int_item name v =
  let x = num_item name v in
  if Float.is_integer x then int_of_float x
  else fail "elements of %S must be integers" name

(* --- /v1/predict ---------------------------------------------------- *)

type predict = {
  app : App_params.t;
  platform : Loggp.Params.t;
  cfg : Plugplay.config;
  cores : int;
  cpn : int;
  validate : bool;
}

let platform_of_key = function
  | "xt4" -> Loggp.Params.xt4
  | "sp2" -> Loggp.Params.sp2
  | "bluegene_l" -> Loggp.Params.bluegene_l
  | "red_storm" -> Loggp.Params.red_storm
  | k -> fail "unknown platform %S (try xt4, sp2, bluegene_l, red_storm)" k

let parse_app j =
  let app_j = get_obj "app" j in
  let name = get_str "name" app_j in
  let dim d =
    let v = get_int d app_j in
    if v < 1 || v > 1_000_000 then fail "field %S out of range" d;
    v
  in
  let grid = Wgrid.Data_grid.v ~nx:(dim "nx") ~ny:(dim "ny") ~nz:(dim "nz") in
  let wg = opt_member "wg" app_j get_num in
  let htile = opt_member "htile" app_j get_num in
  let iterations = opt_member "iterations" app_j get_int in
  let app =
    match name with
    | "lu" -> Apps.Lu.params ?wg ?iterations grid
    | "sweep3d" -> Apps.Sweep3d.params ?wg ?iterations grid
    | "chimaera" -> Apps.Chimaera.params ?wg ?iterations grid
    | n -> fail "unknown app %S (try lu, sweep3d, chimaera)" n
  in
  match htile with Some h -> App_params.with_htile app h | None -> app

let parse_machine ?(need_cores = true) j =
  let m = get_obj "machine" j in
  let platform = platform_of_key (get_str "platform" m) in
  let cpn = get_int "cores_per_node" m in
  if cpn < 1 || cpn > 64 then fail "cores_per_node out of range [1, 64]";
  let cores =
    if not need_cores then 0
    else begin
      let c = get_int "cores" m in
      if c < 1 || c > 16_777_216 then fail "cores out of range [1, 2^24]";
      c
    end
  in
  (Loggp.Params.with_cores_per_node platform cpn, cpn, cores)

(* App_params/Plugplay constructors validate their domains with
   [Invalid_argument]; on this path that is client error, not server
   bug. *)
let guarding f =
  match f () with
  | v -> Ok v
  | exception Bad m -> Error m
  | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

let parse_predict body =
  guarding (fun () ->
      let j = Json.of_string body in
      let app = parse_app j in
      let platform, cpn, cores = parse_machine j in
      let cfg =
        Plugplay.config ~cmp:(Wgrid.Cmp.of_cores_per_node cpn) platform ~cores
      in
      let validate = get_bool_opt "validate" j in
      { app; platform; cfg; cores; cpn; validate })

type validation =
  | Not_requested
  | Validated of {
      cores : int;
      engine : float;
      model : float;
      error_pct : float;
    }
  | Degraded of string

let validate_run ?(max_cores = 64) p =
  let cores = min p.cores max_cores in
  let pg = Wgrid.Proc_grid.of_cores cores in
  let cmp = Wgrid.Cmp.of_cores_per_node p.cpn in
  let costs = Wrun.Costs.loggp ~model_bus:true ~cmp p.platform pg p.app in
  let o = Wrun.Batched.run ~costs pg p.app in
  let cfg = Plugplay.config ~cmp ~pgrid:pg p.platform ~cores in
  let model = Plugplay.time_per_iteration p.app cfg in
  let engine = o.Wrun.Batched.per_iteration in
  let error_pct =
    if model = 0.0 then nan else (engine -. model) /. model *. 100.0
  in
  Validated { cores; engine; model; error_pct }

(* --- response serialization ----------------------------------------- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let eval_predict_into b p ~validation =
  Buffer.clear b;
  let ev = Plugplay.Eval.create p.app p.cfg in
  Plugplay.Eval.run ev;
  let r = Plugplay.Eval.result ev in
  Buffer.add_string b {|{"schema":"wavefront-predict/v1","app":|};
  add_json_string b p.app.App_params.name;
  Buffer.add_string b {|,"platform":|};
  add_json_string b p.platform.Loggp.Params.name;
  Printf.bprintf b
    {|,"cores":%d,"cores_per_node":%d,"t_iteration":%.17g,"t_diagfill":%.17g,"t_fullfill":%.17g,"t_stack":%.17g,"t_nonwavefront":%.17g,"w":%.17g,"w_pre":%.17g,"msg_ew":%d,"msg_ns":%d,"time_per_time_step":%.17g|}
    p.cores p.cpn r.Plugplay.t_iteration r.t_diagfill r.t_fullfill r.t_stack
    r.t_nonwavefront r.w r.w_pre r.msg_ew r.msg_ns
    (float_of_int p.app.App_params.iterations *. r.t_iteration);
  (match validation with
  | Not_requested -> Buffer.add_string b {|,"degraded":false,"validation":null|}
  | Degraded reason ->
      Buffer.add_string b {|,"degraded":true,"validation":null,"reason":|};
      add_json_string b reason
  | Validated { cores; engine; model; error_pct } ->
      Printf.bprintf b
        {|,"degraded":false,"validation":{"cores":%d,"engine":%.17g,"model":%.17g,"error_pct":%.17g}|}
        cores engine model error_pct);
  Buffer.add_char b '}'

let predict_into b body =
  match parse_predict body with
  | Error _ as e -> e
  | Ok p ->
      eval_predict_into b p ~validation:Not_requested;
      Ok ()

(* --- /v1/sweep ------------------------------------------------------ *)

let max_sweep_points = 4096
let max_point_cores = 1_048_576

type sweep = {
  base : App_params.t;
  s_platform : Loggp.Params.t;
  s_cpn : int;
  htiles : float list;
  grids : (int * int) list;
  ks : int list;
  ckpt_cost : float;
  restart_cost : float;
  failures : int;
}

let parse_sweep body =
  guarding (fun () ->
      let j = Json.of_string body in
      let base = parse_app j in
      let s_platform, s_cpn, _ = parse_machine ~need_cores:false j in
      let htiles =
        List.map
          (fun v ->
            let h = num_item "htile" v in
            if h <= 0.0 then fail "htile values must be > 0";
            (* the tile ceiling, checked here so that it is a 400 *)
            ignore (App_params.with_htile base h);
            h)
          (get_list "htile" j)
      in
      let grids =
        List.map
          (function
            | Json.List [ c; r ] ->
                let cols = int_item "grids" c and rows = int_item "grids" r in
                if cols < 1 || rows < 1 then fail "grid sides must be >= 1";
                if cols * rows > max_point_cores then
                  fail "grid %dx%d exceeds %d cores" cols rows max_point_cores;
                (cols, rows)
            | _ -> fail "elements of \"grids\" must be [cols, rows] pairs")
          (get_list "grids" j)
      in
      let ks =
        List.map
          (fun v ->
            let k = int_item "k" v in
            if k < 0 then fail "checkpoint intervals must be >= 0";
            k)
          (get_list "k" j)
      in
      let opt_cost name =
        match opt_member name j get_num with
        | None -> 0.0
        | Some c ->
            if c < 0.0 then fail "field %S must be >= 0" name;
            c
      in
      let ckpt_cost = opt_cost "ckpt_cost" in
      let restart_cost = opt_cost "restart_cost" in
      let failures =
        match opt_member "failures" j get_int with
        | None -> 0
        | Some f ->
            if f < 0 then fail "field \"failures\" must be >= 0";
            f
      in
      let points = List.length htiles * List.length grids * List.length ks in
      if points > max_sweep_points then
        fail "sweep describes %d points; the limit is %d" points
          max_sweep_points;
      {
        base;
        s_platform;
        s_cpn;
        htiles;
        grids;
        ks;
        ckpt_cost;
        restart_cost;
        failures;
      })

let sweep_points s =
  List.length s.htiles * List.length s.grids * List.length s.ks

type point = {
  htile : float;
  cols : int;
  rows : int;
  k : int;
  cores : int;
  t_iter : float;
  overhead : float;
  total : float;
}

(* One (r1)-(r5) evaluation per (Htile, grid) pair, priced at every K:
   the checkpoint interval moves only the resilience term. The
   evaluation is forced by the pair's first point to pass the deadline
   check, so an expired sweep evaluates nothing further. *)
let run_sweep ?(check_every = 16) ~deadline s =
  if check_every < 1 then invalid_arg "Api.run_sweep: check_every must be >= 1";
  let cmp = Wgrid.Cmp.of_cores_per_node s.s_cpn in
  let policies =
    List.map
      (fun k ->
        (k, Perturb.Recover.v ~ckpt_cost:s.ckpt_cost
              ~restart_cost:s.restart_cost k))
      s.ks
  in
  let acc = ref [] in
  let evaluated = ref 0 in
  let expired = ref false in
  (try
     List.iter
       (fun htile ->
         let app = App_params.with_htile s.base htile in
         (* Per-iteration resilience overhead over one iteration's waves,
            the same accounting as the resilience subcommand. *)
         let waves = App_params.waves app in
         List.iter
           (fun (cols, rows) ->
             let cores = cols * rows in
             let r =
               lazy
                 (Plugplay.iteration app
                    (Plugplay.config ~cmp ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
                       s.s_platform ~cores))
             in
             List.iter
               (fun (k, policy) ->
                 if
                   !evaluated mod check_every = 0
                   && Deadline.expired ~now:(Unix.gettimeofday ()) deadline
                 then begin
                   expired := true;
                   raise Exit
                 end;
                 let r = Lazy.force r in
                 let term =
                   Perturb.Recover.expected_term policy ~waves
                     ~wave_cost:(r.Plugplay.w +. r.Plugplay.w_pre)
                     ~failures:s.failures
                 in
                 let overhead = term.Perturb.Recover.total in
                 acc :=
                   {
                     htile;
                     cols;
                     rows;
                     k;
                     cores;
                     t_iter = r.Plugplay.t_iteration;
                     overhead;
                     total = r.Plugplay.t_iteration +. overhead;
                   }
                   :: !acc;
                 incr evaluated)
               policies)
           s.grids)
       s.htiles
   with Exit -> ());
  if !expired then `Expired !evaluated else `Done (List.rev !acc)

let pareto points =
  (* Sort by (cores, total); a point survives if no cheaper-or-equal
     core count achieved a total <= its own. *)
  let sorted =
    List.sort
      (fun a b ->
        match compare a.cores b.cores with
        | 0 -> compare a.total b.total
        | c -> c)
      points
  in
  let rec scan best acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if p.total < best then scan p.total (p :: acc) rest
        else scan best acc rest
  in
  scan infinity [] sorted

let add_point b p =
  Printf.bprintf b
    {|{"htile":%.17g,"cols":%d,"rows":%d,"k":%d,"cores":%d,"t_iteration":%.17g,"overhead":%.17g,"total":%.17g}|}
    p.htile p.cols p.rows p.k p.cores p.t_iter p.overhead p.total

let add_points b points =
  Buffer.add_char b '[';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      add_point b p)
    points;
  Buffer.add_char b ']'

let render_sweep_into b s points =
  Buffer.clear b;
  Buffer.add_string b {|{"schema":"wavefront-sweep/v1","app":|};
  add_json_string b s.base.App_params.name;
  Buffer.add_string b {|,"platform":|};
  add_json_string b s.s_platform.Loggp.Params.name;
  Printf.bprintf b {|,"cores_per_node":%d,"points":%d,"evaluated":|} s.s_cpn
    (sweep_points s);
  add_points b points;
  Buffer.add_string b {|,"frontier":|};
  add_points b (pareto points);
  Buffer.add_char b '}'
