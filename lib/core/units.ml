(* Time-unit conversions. The model works in microseconds throughout; the
   procurement studies of Section 5 report days and simulations per month. *)

let ms = 1_000.0
let s = 1_000_000.0
let minute = 60.0 *. s
let hour = 60.0 *. minute
let day = 24.0 *. hour
let month = 30.0 *. day

let to_ms t = t /. ms
let to_s t = t /. s
let to_hours t = t /. hour
let to_days t = t /. day

let pp_time ppf t =
  if t < ms then Fmt.pf ppf "%.3g us" t
  else if t < s then Fmt.pf ppf "%.3g ms" (to_ms t)
  else if t < minute then Fmt.pf ppf "%.3g s" (to_s t)
  else if t < day then Fmt.pf ppf "%.3g h" (to_hours t)
  else Fmt.pf ppf "%.3g days" (to_days t)
