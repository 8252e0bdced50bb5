(* The workflow behind `wavefront timeline`: run one iteration of the same
   configuration on the observed engine (spans stamped in simulated time)
   and evaluate the analytic term schedule on the batched engine,
   reconstruct both as per-rank x per-wave timelines, optionally execute
   the real shared-memory kernel and reconstruct its timeline too, and
   attribute the closed form's error wave by wave with Divergence. *)

open Wavefront_core
open Wgrid

type t = {
  observed : Obs.Timeline.t;  (** the selected engine's run *)
  model : Obs.Timeline.t;  (** the analytic term schedule (batched) *)
  real : Obs.Timeline.t option;  (** shared-memory Domains run *)
  divergence : Divergence.t;
  sim : Engine.outcome;
  t_iteration : float;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report, per phase *)
}

let run ?(real = false) ?(model_bus = true) ?(engine = Engine.Event)
    ?(capacity = Obs.Tracer.default_capacity) (cfg : Plugplay.config)
    (app : App_params.t) =
  let waves = App_params.waves app in
  (* Host-side runtime cost per stage (no tracer attach: runtime spans
     are wall-clock nondeterministic, the timelines are simulated time). *)
  let phases = Obs.Runtime.phases () in
  (* Observed side: the selected engine with wave-tagged spans. *)
  let obs = Obs.Tracer.create ~capacity () in
  let sim =
    Obs.Runtime.phase phases "simulate" (fun () ->
        Engine.observed_run ~model_bus ~obs engine cfg app)
  in
  (* Model side: the same program on the batched engine, clocks advanced
     by the analytic per-operation costs with the bus off, assembled
     straight into a dense timeline. *)
  let costs = Wrun.Costs.loggp ~cmp:cfg.cmp cfg.platform cfg.pgrid app in
  let model =
    Obs.Runtime.phase phases "model" (fun () ->
        snd (Wrun.Batched.run_timeline ~costs cfg.pgrid app))
  in
  (* Optional real run, one domain per rank; reconstruction happens in
     the analyze phase with the rest. *)
  let real_raw =
    if not real then None
    else
      Obs.Runtime.phase phases "real" (fun () ->
          let htile = max 1 (int_of_float app.htile) in
          let plan =
            Kernels.Sweep_exec.plan ~htile ~schedule:app.schedule
              ~nonwavefront:app.nonwavefront app.grid cfg.pgrid
          in
          let trs =
            Array.init (Proc_grid.cores cfg.pgrid) (fun _ ->
                Obs.Tracer.create ~capacity ())
          in
          ignore (Kernels.Sweep_exec.run ~obs:trs plan);
          let dropped =
            Array.fold_left (fun a tr -> a + Obs.Tracer.dropped tr) 0 trs
          in
          Some (trs, dropped))
  in
  let report =
    Obs.Runtime.phase phases "analyze" @@ fun () ->
    let observed =
      Obs.Timeline.of_spans ~dropped:(Obs.Tracer.dropped obs) ~waves
        (Obs.Tracer.spans obs)
    in
    let real_tl =
      Option.map
        (fun (trs, dropped) ->
          Obs.Timeline.of_spans ~dropped ~waves (Obs.Tracer.merge trs))
        real_raw
    in
    let t_iteration = Plugplay.time_per_iteration app cfg in
    let divergence =
      Divergence.analyze ~model ~observed ~t_iteration ~elapsed:sim.elapsed
    in
    {
      observed;
      model;
      real = real_tl;
      divergence;
      sim;
      t_iteration;
      runtime = [];
    }
  in
  { report with runtime = Obs.Runtime.report phases }

let pp ?(metric = Obs.Timeline.Wait) ppf t =
  let heat title tl =
    Format.fprintf ppf "%s@." title;
    Obs.Timeline.render ~metric ppf tl;
    Format.pp_print_newline ppf ()
  in
  heat "observed (event-level simulator)" t.observed;
  heat "model (analytic term schedule)" t.model;
  (match t.real with
  | Some tl -> heat "real (shared-memory domains)" tl
  | None -> ());
  Divergence.pp ppf t.divergence;
  Format.fprintf ppf "@.runtime:@.%a@." Obs.Runtime.pp_report t.runtime

(* One machine-readable document bundling the timelines and the
   attribution; the timelines embed their own schema ids. *)
let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"wavefront-timeline-report/v1\",";
  Buffer.add_string b
    (Printf.sprintf "\"t_iteration\":%.6f,\"elapsed\":%.6f,\"gap\":%.6f,"
       t.t_iteration t.sim.elapsed t.divergence.gap);
  Buffer.add_string b
    (Printf.sprintf "\"attributed\":%.6f,\"rank\":%d,"
       t.divergence.attributed t.divergence.rank);
  Buffer.add_string b "\"terms\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%.6f" name v))
    (("folding", t.divergence.folding)
    :: ("ramp", t.divergence.ramp)
    :: ("tail", t.divergence.tail)
    :: t.divergence.terms);
  Buffer.add_string b "},\"observed\":";
  Buffer.add_string b (Obs.Timeline.to_json ~label:"observed" t.observed);
  Buffer.add_string b ",\"model\":";
  Buffer.add_string b (Obs.Timeline.to_json ~label:"model" t.model);
  (match t.real with
  | Some tl ->
      Buffer.add_string b ",\"real\":";
      Buffer.add_string b (Obs.Timeline.to_json ~label:"real" tl)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let to_csv t =
  let section label tl =
    "# " ^ label ^ "\n" ^ Obs.Timeline.to_csv tl
  in
  String.concat ""
    ([ section "observed" t.observed; section "model" t.model ]
    @ match t.real with Some tl -> [ section "real" tl ] | None -> [])
