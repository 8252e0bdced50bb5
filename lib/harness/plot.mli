(** ASCII line/scatter plots for the experiment harness: curve shapes
    (knees, crossovers, minima) at a glance, multiple series per canvas,
    optional logarithmic axes. *)

type series

type t

val series : label:string -> (int * float) list -> series

val v :
  ?log_x:bool ->
  ?log_y:bool ->
  ?width:int ->
  ?height:int ->
  title:string ->
  x_label:string ->
  y_label:string ->
  series list ->
  t
(** Raises [Invalid_argument] on an empty plot, a tiny canvas, or
    non-positive values on a logarithmic axis. *)

val render : Format.formatter -> t -> unit
