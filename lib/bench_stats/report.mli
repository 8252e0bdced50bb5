(** The machine-readable benchmark document (schema
    ["wavefront-bench/v1"]). *)

val schema : string

type t = {
  label : string;  (** e.g. a git ref or ["local"] *)
  created_at : float;  (** unix epoch seconds *)
  meta : (string * string) list;  (** free-form provenance *)
  results : Runner.summary list;
}

val v :
  ?label:string ->
  ?meta:(string * string) list ->
  ?created_at:float ->
  Runner.summary list ->
  t

val to_json : t -> string

val of_json : string -> t
(** Raises {!Obs.Json.Parse_error} on malformed input or a schema
    mismatch. *)

val read : string -> t
