(* A zero-dependency metrics registry: counters, gauges, and log-scaled
   histograms with quantile estimation.

   Histograms bucket geometrically: bucket 0 holds values <= [lo], bucket k
   (k >= 1) holds (lo * r^(k-1), lo * r^k] with r = 2^(1/8) (eight buckets
   per doubling, so quantile estimates carry at most ~9% relative bucket
   error, tightened by clamping to the observed min/max). The registry
   preserves insertion order so rendered summaries are stable.

   The registry is not synchronized: create/update it from one domain, or
   give each domain its own (the shmpi runtime gives each rank its own
   tracer for the same reason). *)

type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = {
  lo : float;
  log_r : float;  (* log of the bucket ratio *)
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable rev_order : string list;
}

let create () = { tbl = Hashtbl.create 32; rev_order = [] }

let intern t name m =
  Hashtbl.add t.tbl name m;
  t.rev_order <- name :: t.rev_order

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { count = 0 } in
      intern t name (Counter c);
      c

let inc ?(by = 1) c = c.count <- c.count + by
let count c = c.count

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { value = nan } in
      intern t name (Gauge g);
      g

let set g v = g.value <- v
let value g = g.value

(* 2^(1/8): eight buckets per doubling. The default range [1e-3, 1e10] us
   spans nanoseconds to hours in ~347 buckets. *)
let default_lo = 1e-3
let default_hi = 1e10
let bucket_ratio = Float.exp (Float.log 2.0 /. 8.0)

let histogram ?(lo = default_lo) ?(hi = default_hi) t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      if lo <= 0.0 || hi <= lo then invalid_arg "Metrics.histogram: bad range";
      let log_r = Float.log bucket_ratio in
      let nbuckets = 2 + int_of_float (Float.ceil (Float.log (hi /. lo) /. log_r)) in
      let h =
        { lo; log_r; buckets = Array.make nbuckets 0; n = 0; sum = 0.0;
          minv = infinity; maxv = neg_infinity }
      in
      intern t name (Histogram h);
      h

let bucket_index h v =
  if v <= h.lo then 0
  else
    let k = 1 + int_of_float (Float.floor (Float.log (v /. h.lo) /. h.log_r)) in
    min k (Array.length h.buckets - 1)

let observe h v =
  if not (Float.is_nan v) then begin
    h.buckets.(bucket_index h v) <- h.buckets.(bucket_index h v) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.minv then h.minv <- v;
    if v > h.maxv then h.maxv <- v
  end

let observations h = h.n
let sum h = h.sum
let min_value h = h.minv
let max_value h = h.maxv
let mean h = if h.n = 0 then nan else h.sum /. float_of_int h.n

(* The geometric midpoint of the bucket holding the q-th ranked
   observation, clamped to the observed range. *)
let quantile h q =
  if h.n = 0 then nan
  else if q <= 0.0 then h.minv
  else if q >= 1.0 then h.maxv
  else begin
    let target = q *. float_of_int h.n in
    let k = ref 0 and cum = ref 0.0 in
    (try
       for i = 0 to Array.length h.buckets - 1 do
         cum := !cum +. float_of_int h.buckets.(i);
         if !cum >= target then begin
           k := i;
           raise Exit
         end
       done
     with Exit -> ());
    let mid =
      if !k = 0 then h.lo
      else h.lo *. Float.exp ((float_of_int !k -. 0.5) *. h.log_r)
    in
    Float.min h.maxv (Float.max h.minv mid)
  end

(* Cumulative buckets for exposition formats. Only occupied buckets get
   an entry (the geometric grid has ~347, almost all empty); cumulative
   counts are monotone over any upper-bound subset, so the sparse list is
   still a valid cumulative histogram. The terminal +Inf entry always
   carries the full count. *)
type bucket = { le : float; count : int; cumulative : int }

let buckets h =
  let nb = Array.length h.buckets in
  let acc = ref [] and cum = ref 0 in
  for k = 0 to nb - 1 do
    let c = h.buckets.(k) in
    if c > 0 then begin
      cum := !cum + c;
      let le =
        if k = nb - 1 then infinity
        else h.lo *. Float.exp (float_of_int k *. h.log_r)
      in
      acc := { le; count = c; cumulative = !cum } :: !acc
    end
  done;
  let tail =
    match !acc with
    | { le; _ } :: _ when le = infinity -> []
    | _ -> [ { le = infinity; count = 0; cumulative = h.n } ]
  in
  List.rev_append !acc tail

(* --- Snapshots and rendering --- *)

type sample =
  | Count of int
  | Value of float
  | Distribution of {
      n : int;
      sum : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

let sample_of = function
  | Counter c -> Count c.count
  | Gauge g -> Value g.value
  | Histogram h ->
      Distribution
        { n = h.n; sum = h.sum; min = h.minv; max = h.maxv;
          p50 = quantile h 0.5; p95 = quantile h 0.95; p99 = quantile h 0.99 }

let snapshot t =
  List.rev_map
    (fun name -> (name, sample_of (Hashtbl.find t.tbl name)))
    t.rev_order

let find t name = Option.map sample_of (Hashtbl.find_opt t.tbl name)

(* Raw views, for renderers (OpenMetrics) that need the underlying
   histogram rather than the quantile summary. *)
type view = Vcounter of int | Vgauge of float | Vhistogram of histogram

let views t =
  List.rev_map
    (fun name ->
      ( name,
        match Hashtbl.find t.tbl name with
        | Counter c -> Vcounter c.count
        | Gauge g -> Vgauge g.value
        | Histogram h -> Vhistogram h ))
    t.rev_order

let pp_sample ppf = function
  | Count n -> Format.fprintf ppf "%d" n
  | Value v -> Format.fprintf ppf "%.3f" v
  | Distribution d ->
      Format.fprintf ppf
        "n=%d sum=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f" d.n d.sum
        d.min d.p50 d.p95 d.p99 d.max

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-32s %a" name pp_sample s)
    (snapshot t);
  Format.fprintf ppf "@]"
