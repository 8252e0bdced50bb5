(* A completed interval of work on one rank: the unit of the structured
   event trace. Spans are plain data — producers stamp them from whatever
   clock governs their execution (wall time for real runs, engine time for
   simulated ones), so simulated and measured timelines share one format. *)

type arg = Int of int | Float of float | Str of string

type t = {
  name : string;  (** what the rank was doing, e.g. "compute", "recv" *)
  cat : string;  (** coarse grouping, e.g. "compute", "comm" *)
  rank : int;
  t_start : float;  (** us, in the producer's clock domain *)
  dur : float;  (** us *)
  args : (string * arg) list;
}

(* A negative duration can only come from a broken clock (the classic case:
   an NTP step under gettimeofday). Such a span is still evidence that the
   operation happened, so instead of refusing it the duration is clamped to
   zero and the raw value kept as an arg, where exporters and reports can
   surface it. *)
let clamped_key = "clamped_neg_dur"

let v ?(cat = "") ?(args = []) ~rank ~start ~dur name =
  if dur >= 0.0 then { name; cat; rank; t_start = start; dur; args }
  else
    { name; cat; rank; t_start = start; dur = 0.0;
      args = (clamped_key, Float dur) :: args }

let clamped s = List.mem_assoc clamped_key s.args

let end_time s = s.t_start +. s.dur

let compare_start a b =
  match Float.compare a.t_start b.t_start with
  | 0 -> compare a.rank b.rank
  | c -> c

let arg_int s key =
  match List.assoc_opt key s.args with Some (Int i) -> Some i | _ -> None

let arg_float s key =
  match List.assoc_opt key s.args with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None
