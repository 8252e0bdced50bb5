(** The experiment registry: every table and figure of the paper's
    evaluation (plus this reproduction's extension studies), addressable by
    DESIGN.md experiment id (lowercase, e.g. ["fig5"], ["tab2"],
    ["valid"]). *)

type scale =
  | Quick  (** tractable simulation sizes; about a minute of CPU *)
  | Full  (** adds the large validation points (up to 8192 cores) *)

type artifact = Table of Table.t | Plot of Plot.t

val all : ?scale:scale -> unit -> (string * (unit -> artifact list)) list
val ids : ?scale:scale -> unit -> string list
val find : ?scale:scale -> string -> (unit -> artifact list) option
val render_artifact : Format.formatter -> artifact -> unit
