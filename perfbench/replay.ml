(* The serve workloads' layer map: the requests of a traced window,
   replayed in-process through each layer's public functions with one
   span per call. Each distinct request is weighted by how often the
   window sent it, so every figure divides into a mean per request of
   that window. *)

module Api = Serve.Api
module Plugplay = Wavefront_core.Plugplay
module App_params = Wavefront_core.App_params

let passes = 3

(* Weighted sums keyed by layer name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

let get (acc : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)

(* [f ()] and its duration in us, recorded as a span. *)
let timed tr name f =
  let t0 = Obs.Clock.monotonic () in
  let v = f () in
  let dur = Obs.Clock.monotonic () -. t0 in
  Obs.Tracer.record tr ~cat:"layer" ~rank:0 ~start:t0 ~dur name;
  (v, dur)

let ok = function Ok v -> v | Error m -> failwith m

let predict tr acc ~w body ~validate =
  let words0 = Gc.minor_words () in
  let p, parse = timed tr "api.parse_predict" (fun () -> ok (Api.parse_predict body)) in
  let ev, create =
    timed tr "plugplay.eval_create" (fun () -> Plugplay.Eval.create p.Api.app p.Api.cfg)
  in
  let (), run = timed tr "plugplay.eval_run" (fun () -> Plugplay.Eval.run ev) in
  let validation, vrun =
    if validate then timed tr "api.validate_run" (fun () -> Api.validate_run p)
    else (Api.Not_requested, 0.0)
  in
  let buf = Buffer.create 1024 in
  let (), eval =
    timed tr "api.eval_predict_into" (fun () ->
        Api.eval_predict_into buf p ~validation)
  in
  add acc "words" (w *. (Gc.minor_words () -. words0));
  add acc "predicts" w;
  add acc "parse_predict" (w *. parse);
  add acc "eval_create" (w *. create);
  add acc "eval_run" (w *. run);
  add acc "serialize" (w *. (eval -. create -. run));
  if validate then begin
    add acc "validates" w;
    add acc "validate_run" (w *. vrun)
  end;
  add acc "api" (w *. (parse +. eval +. vrun))

(* The per-point work of [Api.run_sweep], timed call by call: the (r5)
   evaluation and the resilience term. This is a copy of [Api]'s point
   evaluation ([eval_point], which [Api] does not export) and must track
   it: [sweep] checks that the copy's totals equal [run_sweep]'s, bit for
   bit, and counts each point that differs as drift. The model inputs
   come from parsing a predict with the same app and machine. Returns
   the totals in [run_sweep]'s order. *)
let sweep_points tr acc ~w (s : Gen.sweep) =
  let p =
    ok
      (Api.parse_predict
         (Printf.sprintf
            {|{"app":%s,"machine":{"platform":"xt4","cores":1,"cores_per_node":%d}}|}
            s.s_app s.s_cpn))
  in
  let cmp = Wgrid.Cmp.of_cores_per_node s.s_cpn in
  let totals = ref [] in
  Array.iter
    (fun htile ->
      let app = App_params.with_htile p.Api.app htile in
      let waves =
        Sweeps.Schedule.nsweeps app.App_params.schedule
        * Wgrid.Tile.ntiles_int ~nz:app.App_params.grid.Wgrid.Data_grid.nz
            ~htile:app.App_params.htile
      in
      Array.iter
        (fun (cols, rows) ->
          let cfg =
            Plugplay.config ~cmp ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
              p.Api.platform ~cores:(cols * rows)
          in
          Array.iter
            (fun k ->
              let r, it =
                timed tr "plugplay.iteration" (fun () -> Plugplay.iteration app cfg)
              in
              let policy =
                Perturb.Recover.v ~ckpt_cost:s.s_ckpt_cost
                  ~restart_cost:s.s_restart_cost k
              in
              let term, et =
                timed tr "recover.expected_term" (fun () ->
                    Perturb.Recover.expected_term policy ~waves
                      ~wave_cost:(r.Plugplay.w +. r.Plugplay.w_pre)
                      ~failures:s.s_failures)
              in
              totals := (r.Plugplay.t_iteration +. term.Perturb.Recover.total) :: !totals;
              add acc "iteration" (w *. it);
              add acc "expected_term" (w *. et))
            Gen.ks)
        s.s_grids)
    Gen.htiles;
  List.rev !totals

let sweep tr acc ~w (s : Gen.sweep) =
  let words0 = Gc.minor_words () in
  let sw, parse = timed tr "api.parse_sweep" (fun () -> ok (Api.parse_sweep s.s_body)) in
  let points, run =
    timed tr "api.run_sweep" (fun () ->
        match Api.run_sweep ~deadline:Serve.Deadline.none sw with
        | `Done pts -> pts
        | `Expired _ -> assert false)
  in
  let _, pareto = timed tr "api.pareto" (fun () -> Api.pareto points) in
  let buf = Buffer.create (1 lsl 20) in
  let (), render =
    timed tr "api.render_sweep_into" (fun () -> Api.render_sweep_into buf sw points)
  in
  add acc "words" (w *. (Gc.minor_words () -. words0));
  add acc "sweeps" w;
  add acc "points" (w *. float_of_int s.s_points);
  add acc "parse_sweep" (w *. parse);
  add acc "run_sweep" (w *. run);
  add acc "pareto" (w *. pareto);
  add acc "render" (w *. (render -. pareto));
  add acc "api" (w *. (parse +. run +. render));
  let same (pt : Api.point) t = Int64.bits_of_float pt.total = Int64.bits_of_float t in
  let copy = sweep_points tr acc ~w s in
  let drift =
    if List.compare_lengths points copy <> 0 then List.length points
    else List.length (List.filter not (List.map2 same points copy))
  in
  if drift > 0 then
    Printf.eprintf "replay: %d sweep points differ from Api.run_sweep\n%!" drift;
  add acc "drift" (float_of_int drift)

(* Replay [counts] (op -> times sent). Returns the sums over the
   window's requests ("drift" counts the sweep points the per-point copy
   got wrong) and the major collections the replay triggered.
   Predicts are replayed [passes] times each (weight: sends / passes);
   a sweep, whose points already average out, once. *)
let run tr (pools : Gen.pools) counts =
  let acc : acc = Hashtbl.create 32 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  List.iter
    (fun (op, n) ->
      let n = float_of_int n in
      let predicts body ~validate =
        for _ = 1 to passes do
          predict tr acc ~w:(n /. float_of_int passes) body ~validate
        done
      in
      match op with
      | Gen.Predict i -> predicts pools.predicts.(i).p_body ~validate:false
      | Gen.Validate i -> predicts pools.validates.(i).p_body ~validate:true
      | Gen.Sweep i -> sweep tr acc ~w:n pools.sweeps.(i))
    counts;
  (acc, (Gc.quick_stat ()).Gc.major_collections - major0)

(* Minor-heap words one [Eval.create] allocates, averaged over the
   predict pool: an exact count for a given seed. *)
let create_minor_words (pools : Gen.pools) =
  let total = ref 0.0 in
  Array.iter
    (fun p ->
      let p = ok (Api.parse_predict p.Gen.p_body) in
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Plugplay.Eval.create p.Api.app p.Api.cfg));
      total := !total +. (Gc.minor_words () -. w0))
    pools.predicts;
  !total /. float_of_int (Array.length pools.predicts)
