(* Throughput of a measured window, computed per one-second bin and
   summarized by the median across bins: a burst of host noise moves a
   few bins rather than the figure, and work finishing after the window
   (a long last request) is left out instead of stretching it. Times are
   microseconds from [Obs.Clock.monotonic]; [start] is the window's
   start. *)

module Stats = Bench_stats.Stats

let bins seconds = max 1 (int_of_float (Float.round seconds))

(* Work completed per second over [seconds]. Each operation
   [(t0, t1, work)] counts as doing its work evenly over [t0, t1]. *)
let rate ~start ~seconds ops =
  let n = bins seconds in
  let acc = Array.make n 0.0 in
  List.iter
    (fun (t0, t1, work) ->
      let a = (t0 -. start) /. 1e6 and b = (t1 -. start) /. 1e6 in
      for i = max 0 (int_of_float a) to min (n - 1) (int_of_float b) do
        let lo = Float.max a (float_of_int i)
        and hi = Float.min b (float_of_int (i + 1)) in
        if hi > lo then acc.(i) <- acc.(i) +. (work *. (hi -. lo) /. (b -. a))
      done)
    ops;
  Stats.median acc
