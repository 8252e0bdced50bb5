(** Sensitivity of predictions to their inputs: elasticities
    [(dT/T)/(dx/x)] by central finite differences. Identifies which
    measured/fitted inputs' uncertainties matter at a given scale. *)

type input = Wg | Wg_pre | Htile | G | L | O | Msg_payload

val all_inputs : input list
val input_name : input -> string

val elasticity :
  ?h:float -> App_params.t -> Plugplay.config -> input -> float

type row = { input : input; elasticity : float }

val analyze : ?h:float -> App_params.t -> Plugplay.config -> row list
val pp : row list Fmt.t
