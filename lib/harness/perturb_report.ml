(* The workflow behind `wavefront perturb`: drive one perturbation spec
   through every layer that understands it — the noise-adjusted analytic
   estimate, an unperturbed and a perturbed simulator run, the dataflow
   validator under adversarial straggler ordering, and (optionally) the
   real shared-memory kernel — and reconcile them in one report.

   Beyond the model-vs-sim-vs-real comparison, the report answers where
   the injected delay went: the perturbed simulator run tags every
   injected interval as a perturb.* span, so the difference between the
   total injected and the elapsed-time growth is the share absorbed in
   pipeline slack rather than propagated to the critical path. *)

open Wavefront_core

type t = {
  estimate : Perturb.Estimate.breakdown;
  compare : Table.t;
  injection : Table.t;
  sim_base : Engine.outcome;
  sim : Engine.outcome;
  dataflow : Wrun.Dataflow.outcome;
  real : (Kernels.Sweep_exec.outcome * Kernels.Sweep_exec.resilient_outcome) option;
  timeline_base : Obs.Timeline.t;
  timeline : Obs.Timeline.t;
      (** perturbed run; compared against [timeline_base] the heatmaps show
          where injected delay was absorbed vs propagated *)
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report, per phase *)
}

(* Count and total duration of the spans with this name. *)
let span_total spans name =
  List.fold_left
    (fun (n, tot) (s : Obs.Span.t) ->
      if s.name = name then (n + 1, tot +. s.dur) else (n, tot))
    (0, 0.0) spans

let dash = "-"

let run ?(real = false) ?(model_bus = true) ?(engine = Engine.Event)
    ?(capacity = Obs.Tracer.default_capacity) (cfg : Plugplay.config)
    (app : App_params.t) (spec : Perturb.Spec.t) =
  (* Host-side runtime cost per stage (no tracer attach: runtime spans
     are wall-clock nondeterministic, the timelines are simulated time). *)
  let phases = Obs.Runtime.phases () in
  let estimate =
    Obs.Runtime.phase phases "estimate" (fun () ->
        Perturb.Estimate.iteration app cfg spec)
  in
  let obs_base = Obs.Tracer.create ~capacity () in
  let obs = Obs.Tracer.create ~capacity () in
  let sim_base, sim =
    Obs.Runtime.phase phases "simulate" (fun () ->
        let sim_base =
          Engine.observed_run ~model_bus ~obs:obs_base engine cfg app
        in
        let sim =
          Engine.observed_run ~model_bus ~perturb:spec ~obs engine cfg app
        in
        (sim_base, sim))
  in
  let spans = Obs.Tracer.spans obs in
  let waves = App_params.waves app in
  let timeline_of tr sp =
    Obs.Timeline.of_spans ~dropped:(Obs.Tracer.dropped tr) ~waves sp
  in
  let dataflow =
    Obs.Runtime.phase phases "dataflow" (fun () ->
        Wrun.Dataflow.run ~perturb:spec cfg.pgrid app)
  in
  let real_result =
    if not real then None
    else
      Obs.Runtime.phase phases "real" (fun () ->
          let htile = max 1 (int_of_float app.htile) in
          let base_plan =
            Kernels.Sweep_exec.plan ~htile ~schedule:app.schedule
              ~nonwavefront:app.nonwavefront app.grid cfg.pgrid
          in
          let base = Kernels.Sweep_exec.run base_plan in
          let perturbed =
            Kernels.Sweep_exec.run_resilient
              { base_plan with perturb = Some spec }
          in
          Some (base, perturbed))
  in
  (* The rest is analysis of the collected data; the record is patched
     with the runtime section once the phase has closed. *)
  let report =
    Obs.Runtime.phase phases "analyze" @@ fun () ->
  let timeline_base = timeline_of obs_base (Obs.Tracer.spans obs_base) in
  let timeline = timeline_of obs spans in
  let real_base_t =
    Option.map (fun ((b : Kernels.Sweep_exec.outcome), _) -> b.wall_time)
      real_result
  in
  let real_perturbed_t =
    match real_result with
    | Some (_, Kernels.Sweep_exec.Completed o) -> Some o.wall_time
    | Some (_, Degraded _) | None -> None
  in
  let opt = function None -> dash | Some v -> Table.fcell v in
  let compare =
    let slowdown base t =
      match (base, t) with
      | Some b, Some t when b > 0.0 -> Table.pct ((t -. b) /. b)
      | _ -> dash
    in
    Table.v ~id:"PERTURB-COMPARE"
      ~title:
        "Perturbed iteration time: model estimate vs simulated vs real (us)"
      ~notes:
        ([ Fmt.str "spec: %a" Perturb.Spec.pp spec;
           Fmt.str "dataflow (stragglers always last): %a"
             Wrun.Dataflow.pp_outcome dataflow ]
        @ (match sim.failed with
          | [] -> []
          | l ->
              [ Fmt.str "simulated run degraded: rank(s) %s killed"
                  (String.concat ", " (List.map string_of_int l)) ])
        @ (match real_result with
          | Some (_, Degraded { failed; reason; frontier; wall_time }) ->
              [ Fmt.str
                  "real run degraded after %.0f us: rank(s) %s failed (%s); \
                   frontier %s tiles"
                  wall_time
                  (String.concat ", " (List.map string_of_int failed))
                  (Printexc.to_string reason)
                  (String.concat "/"
                     (Array.to_list (Array.map string_of_int frontier))) ]
          | _ -> [])
        @
        if spec.failures = [] then []
        else
          [ "hint: `wavefront recover` evaluates this spec under \
             checkpoint/rollback recovery" ])
      ~headers:[ "quantity"; "model"; "simulated"; "real" ]
      [
        [ "unperturbed T_iter"; Table.fcell estimate.base;
          Table.fcell sim_base.per_iteration; opt real_base_t ];
        [ "perturbed T_iter"; Table.fcell estimate.total;
          Table.fcell sim.per_iteration; opt real_perturbed_t ];
        [ "slowdown";
          slowdown (Some estimate.base) (Some estimate.total);
          slowdown (Some sim_base.per_iteration) (Some sim.per_iteration);
          slowdown real_base_t real_perturbed_t ];
      ]
  in
  let injection =
    let n_noise, t_noise = span_total spans (Perturb.Model.span_name Noise) in
    let n_strag, t_strag =
      span_total spans (Perturb.Model.span_name Straggler)
    in
    let n_link, t_link = span_total spans (Perturb.Model.span_name Link) in
    let injected = t_noise +. t_strag +. t_link in
    let propagated = sim.elapsed -. sim_base.elapsed in
    let source kind n t model =
      [ Perturb.Model.span_name kind; Table.icell n; Table.fcell t;
        Table.fcell model ]
    in
    Table.v ~id:"PERTURB-INJECTION"
      ~title:"Injected delay: absorbed in pipeline slack vs propagated"
      ~notes:
        [ "model column: the estimate's critical-path charge for the term";
          "absorbed = injected - elapsed growth; negative means the \
           perturbation cost more than the injected time (lost overlap)" ]
      ~headers:[ "source"; "spans"; "injected (us)"; "model (us)" ]
      [
        source Noise n_noise t_noise estimate.noise;
        source Straggler n_strag t_strag estimate.straggler;
        source Link n_link t_link estimate.link;
        [ "injected total"; dash; Table.fcell injected;
          Table.fcell (estimate.total -. estimate.base) ];
        [ "elapsed growth (propagated)"; dash; Table.fcell propagated; dash ];
        [ "absorbed in slack"; dash; Table.fcell (injected -. propagated);
          dash ];
      ]
  in
  {
    estimate;
    compare;
    injection;
    sim_base;
    sim;
    dataflow;
    real = real_result;
    timeline_base;
    timeline;
    runtime = [];
  }
  in
  { report with runtime = Obs.Runtime.report phases }

(* Exit discipline shared with `wavefront recover`: 0 clean, 3 degraded
   (completed, but mismatching or leaking messages), 4 when ranks died —
   this command has no recovery, so every spec'd failure is unrecovered. *)
let exit_status t =
  let real_failed =
    match t.real with
    | Some (_, Kernels.Sweep_exec.Degraded _) -> true
    | _ -> false
  in
  if t.sim.failed <> [] || t.dataflow.failed <> [] || real_failed then 4
  else if
    (not t.dataflow.completed)
    || t.dataflow.mismatches <> []
    || t.dataflow.orphaned > 0
  then 3
  else 0

let pp ppf t =
  Table.render ppf t.compare;
  Format.pp_print_newline ppf ();
  Table.render ppf t.injection;
  Format.pp_print_newline ppf ();
  (* Side-by-side wait heatmaps: columns that darken only on the perturbed
     side show where injected delay propagated down the pipeline; columns
     that stay unchanged absorbed it in slack. *)
  Format.fprintf ppf "unperturbed wait by rank x wave:@.";
  Obs.Timeline.render ~metric:Obs.Timeline.Wait ppf t.timeline_base;
  Format.fprintf ppf "@.perturbed wait by rank x wave:@.";
  Obs.Timeline.render ~metric:Obs.Timeline.Wait ppf t.timeline;
  Format.fprintf ppf "@.runtime:@.%a@." Obs.Runtime.pp_report t.runtime
