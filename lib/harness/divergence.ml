(* Wave-by-wave model-error attribution: align the analytic term schedule
   (the batched engine's timeline) against an observed run's timeline and
   decompose the closed form's total error into named parts.

   Everything is measured on one rank — the observed run's last finisher,
   whose program is the critical path the model's T_iteration folds — and
   the decomposition is exact by construction:

     T_iteration - elapsed
       = folding            (closed form vs the term schedule's makespan
                             for that rank: what (r5)'s min/max folding
                             and real-valued tile counts absorb)
       + ramp               (difference in when the rank's first span
                             starts: pipeline-fill skew)
       + sum of bucket deltas (model - observed, per compute / send /
                             recv / wait / other / idle, summed over
                             every wave column; each column's buckets sum
                             to its window width, so these add up to the
                             difference of the two ranks' span extents)
       + tail               (observed finish vs the run's elapsed: time
                             after the rank's last span, e.g. other ranks
                             draining)

   so [attributed] equals [gap] to float precision — the acceptance
   identity the test suite asserts. *)

type t = {
  rank : int;  (** the observed last finisher everything is measured on *)
  t_iteration : float;
  elapsed : float;
  gap : float;  (** [t_iteration - elapsed], the model's total error *)
  folding : float;
  ramp : float;
  tail : float;
  terms : (string * float) list;  (** per-bucket deltas, model - observed *)
  per_wave : float array;  (** per-column window-width delta, model - obs *)
  attributed : float;  (** sum of all parts; equals [gap] *)
}

let zero_cell : Obs.Timeline.cell =
  {
    t_start = 0.0;
    t_end = 0.0;
    compute = 0.0;
    send = 0.0;
    recv = 0.0;
    wait = 0.0;
    other = 0.0;
    idle = 0.0;
    spans = 0;
  }

let cell_at (tl : Obs.Timeline.t) ~rank ~col =
  if rank < tl.ranks && col < Obs.Timeline.columns tl then
    Obs.Timeline.cell tl ~rank ~col
  else zero_cell

let buckets =
  [
    ("compute", fun (c : Obs.Timeline.cell) -> c.compute);
    ("send", fun c -> c.send);
    ("recv", fun c -> c.recv);
    ("wait", fun c -> c.wait);
    ("other", fun c -> c.other);
    ("idle", fun c -> c.idle);
  ]

let analyze ~(model : Obs.Timeline.t) ~(observed : Obs.Timeline.t)
    ~t_iteration ~elapsed =
  let rank =
    let best = ref 0 in
    Array.iteri
      (fun i f -> if f > observed.finish.(!best) then best := i)
      observed.finish;
    !best
  in
  let cols =
    max (Obs.Timeline.columns model) (Obs.Timeline.columns observed)
  in
  let delta f =
    let acc = ref 0.0 in
    for col = 0 to cols - 1 do
      acc :=
        !acc
        +. f (cell_at model ~rank ~col)
        -. f (cell_at observed ~rank ~col)
    done;
    !acc
  in
  let terms = List.map (fun (name, f) -> (name, delta f)) buckets in
  let per_wave =
    Array.init cols (fun col ->
        Obs.Timeline.cell_width (cell_at model ~rank ~col)
        -. Obs.Timeline.cell_width (cell_at observed ~rank ~col))
  in
  let m_start = if rank < model.ranks then model.start.(rank) else 0.0 in
  let m_finish = if rank < model.ranks then model.finish.(rank) else 0.0 in
  let folding = t_iteration -. m_finish in
  let ramp = m_start -. observed.start.(rank) in
  let tail = observed.finish.(rank) -. elapsed in
  let attributed =
    folding +. ramp +. tail
    +. List.fold_left (fun a (_, d) -> a +. d) 0.0 terms
  in
  {
    rank;
    t_iteration;
    elapsed;
    gap = t_iteration -. elapsed;
    folding;
    ramp;
    tail;
    terms;
    per_wave;
    attributed;
  }

let table t =
  let row name v note = [ name; Table.fcell v; note ] in
  Table.v ~id:"DIVERGENCE"
    ~title:
      (Printf.sprintf
         "Model-error attribution on rank %d (model - observed, us)" t.rank)
    ~headers:[ "term"; "delta (us)"; "meaning" ]
    ~notes:
      [
        Printf.sprintf
          "gap = T_iteration - elapsed = %.4f us; attributed parts sum to \
           %.4f us"
          t.gap t.attributed;
      ]
    ([
       row "folding" t.folding "closed form vs term-schedule makespan";
       row "ramp" t.ramp "first-span start skew";
     ]
    @ List.map
        (fun (name, d) ->
          row name d
            (match name with
            | "compute" -> "modeled W vs executed compute"
            | "send" | "recv" -> "uncontended protocol cost delta"
            | "wait" -> "blocking the model does not charge"
            | "other" -> "collectives / halos / overlap"
            | "idle" -> "uncovered window time"
            | _ -> ""))
        t.terms
    @ [ row "tail" t.tail "after the rank's last span" ])

(* Signed per-wave heatmap: one character per (downsampled) wave column,
   upper-case ramp where the model over-predicts, lower-case where it
   under-predicts. *)
let render_waves ppf t =
  let n = Array.length t.per_wave in
  if n = 0 then Format.fprintf ppf "(no waves)@."
  else begin
    let max_cols = 72 in
    let m = min n max_cols in
    let bucket i =
      let lo = i * n / m and hi = max ((i + 1) * n / m) ((i * n / m) + 1) in
      let acc = ref 0.0 in
      for j = lo to hi - 1 do
        acc := !acc +. t.per_wave.(j)
      done;
      !acc /. float_of_int (hi - lo)
    in
    let vals = Array.init m bucket in
    let amax =
      Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 vals
    in
    let over = "+*#@" and under = "-=%&" in
    let glyph v =
      if amax <= 0.0 || Float.abs v < 1e-12 *. amax then '.'
      else
        let lvl =
          min 3 (int_of_float (Float.abs v /. amax *. 4.0))
        in
        (if v > 0.0 then over else under).[lvl]
    in
    Format.fprintf ppf
      "model error by wave on rank %d (+ over-predicts, - under; peak \
       |delta| %.3f us)@."
      t.rank amax;
    Format.fprintf ppf "  ";
    Array.iter (fun v -> Format.fprintf ppf "%c" (glyph v)) vals;
    Format.fprintf ppf "  (last column = epilogue)@."
  end

let pp ppf t =
  Table.render ppf (table t);
  render_waves ppf t
