(** A minimal JSON value, printer and parser — just enough to round-trip
    the benchmark report and run-ledger schemas without a JSON dependency.
    Lives in [Obs] so both the ledger and the benchmark layer (which
    depends on [Obs]) share one codec. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Numbers print as [%.0f] when integral and below 1e15 in magnitude,
    else as {!float_repr}; strings as {!add_string} writes them. *)

(** {1 Buffer writers}

    For renderers that write JSON straight into a buffer instead of
    building a {!t}: each appends one JSON token and interprets no
    format string. *)

val add_string : Buffer.t -> string -> unit
(** The string in double quotes. A double quote, a backslash, a newline,
    a carriage return and a tab get their two-character escapes, other
    bytes below 0x20 a [u00XX] escape, and every other byte is copied as
    it is. *)

val float_repr : float -> string
(** [Printf.sprintf "%.17g" x], byte for byte (so [nan], [inf] and
    [-inf] for the non-finite values): enough digits that
    [float_of_string] gives [x] back bit for bit. *)

val add_float : Buffer.t -> float -> unit
(** Appends {!float_repr}. *)

val add_int : Buffer.t -> int -> unit
(** [Printf.sprintf "%d" n], byte for byte; allocates nothing. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input. *)

val member : string -> t -> t option

val get_str : string -> t option -> string
val get_num : string -> t option -> float
val get_list : string -> t option -> t list
(** Raise {!Parse_error} when absent or of the wrong type; [name] labels
    the error. *)
