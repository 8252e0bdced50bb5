(* Engine selection for the observed side of the report workflows: the
   event-level simulator or the wave-batched flat-array engine, behind
   one run function returning the figures both engines produce. *)

type t = Event | Batched

let to_string = function Event -> "event" | Batched -> "batched"

let all = [ ("event", Event); ("batched", Batched) ]

type outcome = {
  elapsed : float;
  per_iteration : float;
  completed : bool;
  failed : int list;
  recovered : int list;
  checkpoints : int;
}

let observed_run ?(model_bus = true) ?perturb ?recover ?obs ?max_ranks engine
    (cfg : Wavefront_core.Plugplay.config) (app : Wavefront_core.App_params.t) =
  match engine with
  | Event ->
      let machine =
        Xtsim.Machine.v ~model_bus ~cmp:cfg.cmp cfg.platform cfg.pgrid
      in
      let o =
        Xtsim.Wavefront_sim.run ?perturb ?recover ?obs ?max_ranks machine app
      in
      {
        elapsed = o.elapsed;
        per_iteration = o.per_iteration;
        completed = o.completed;
        failed = o.failed;
        recovered = o.recovered;
        checkpoints = o.checkpoints;
      }
  | Batched ->
      let costs =
        Wrun.Costs.loggp ~model_bus ~cmp:cfg.cmp cfg.platform cfg.pgrid app
      in
      let o = Wrun.Batched.run ?perturb ?recover ?obs ~costs cfg.pgrid app in
      {
        elapsed = o.elapsed;
        per_iteration = o.per_iteration;
        completed = o.completed;
        failed = o.failed;
        recovered = o.recovered;
        checkpoints = o.checkpoints;
      }
