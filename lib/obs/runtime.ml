(* Runtime telemetry: thin, dependable wrappers over [Gc.quick_stat],
   [Unix.times] and /proc, plus the calibrated allocation-accounting
   window the zero-alloc gate is built on. *)

type sample = {
  time_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
  peak_rss_mb : int;
}

(* Peak resident set (VmHWM), MB; 0 where /proc is unavailable or the
   line is unparsable — "unknown", never a measurement. Promoted here
   from the bench suite so every consumer shares one reader. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            (try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb / 1024)
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
        | _ -> go ()
        | exception End_of_file -> 0
      in
      let r = go () in
      close_in ic;
      r

let sample () =
  let s = Gc.quick_stat () in
  let tm = Unix.times () in
  {
    time_s = Clock.monotonic () /. 1e6;
    cpu_s = tm.Unix.tms_utime +. tm.Unix.tms_stime;
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
    peak_rss_mb = peak_rss_mb ();
  }

type delta = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_delta_words : int;
  top_heap_words : int;
  peak_rss_mb : int;
  domains : int;
}

let delta (a : sample) (b : sample) =
  {
    wall_s = b.time_s -. a.time_s;
    cpu_s = b.cpu_s -. a.cpu_s;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    compactions = b.compactions - a.compactions;
    heap_delta_words = b.heap_words - a.heap_words;
    top_heap_words = b.top_heap_words;
    peak_rss_mb = b.peak_rss_mb;
    domains = Domain.recommended_domain_count ();
  }

let utilization d = if d.wall_s > 0.0 then d.cpu_s /. d.wall_s else nan

let delta_kv ?(prefix = "runtime.") d =
  [
    (prefix ^ "wall_s", d.wall_s);
    (prefix ^ "cpu_s", d.cpu_s);
    (prefix ^ "utilization", utilization d);
    (prefix ^ "minor_words", d.minor_words);
    (prefix ^ "promoted_words", d.promoted_words);
    (prefix ^ "major_words", d.major_words);
    (prefix ^ "minor_collections", float_of_int d.minor_collections);
    (prefix ^ "major_collections", float_of_int d.major_collections);
    (prefix ^ "compactions", float_of_int d.compactions);
    (prefix ^ "heap_delta_words", float_of_int d.heap_delta_words);
    (prefix ^ "top_heap_words", float_of_int d.top_heap_words);
    (prefix ^ "peak_rss_mb", float_of_int d.peak_rss_mb);
    (prefix ^ "domains", float_of_int d.domains);
  ]

let to_metrics ?prefix reg d =
  List.iter
    (fun (k, v) -> Metrics.set (Metrics.gauge reg k) v)
    (delta_kv ?prefix d)

let mwords w = w *. 8.0 /. 1e6 (* words -> MB on 64-bit *)

type phases = { mutable rev : (string * delta) list }

let phases () = { rev = [] }

let phase ?tracer ?(rank = 0) ps name f =
  let s0 = sample () in
  let t0 = match tracer with None -> 0.0 | Some tr -> Tracer.clock tr () in
  let finish () =
    let d = delta s0 (sample ()) in
    ps.rev <- (name, d) :: ps.rev;
    match tracer with
    | None -> ()
    | Some tr ->
        let now = Tracer.clock tr () in
        Tracer.record tr ~cat:"runtime" ~rank ~start:t0 ~dur:(now -. t0)
          ~args:
            [
              ("minor_words", Span.Float d.minor_words);
              ("major_words", Span.Float d.major_words);
              ("minor_collections", Span.Int d.minor_collections);
              ("major_collections", Span.Int d.major_collections);
              ("peak_rss_mb", Span.Int d.peak_rss_mb);
            ]
          ("runtime." ^ name)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let report ps = List.rev ps.rev

let pp_report ppf phases =
  Format.fprintf ppf "@[<v>%-12s %9s %6s %10s %7s %6s %8s" "phase" "wall s"
    "cpu x" "minor MB" "maj gc" "compact" "rss MB";
  List.iter
    (fun (name, d) ->
      Format.fprintf ppf "@,%-12s %9.4f %6.2f %10.3f %7d %6d %8d" name
        d.wall_s (utilization d) (mwords d.minor_words) d.major_collections
        d.compactions d.peak_rss_mb)
    phases;
  Format.fprintf ppf "@]"

(* --- allocation accounting --- *)

type alloc = {
  iterations : int;
  minor_words_total : float;
  minor_words_per_iter : float;
  promoted_words : float;
  minor_collections : int;
}

(* One measurement window. [Gc.minor_words] reads the counter first and
   boxes its result after, so the box behind [before] lands *inside* the
   window — a fixed overhead the caller calibrates away with [noop]. The
   warm-up call outside the window pays one-time lazy initialization
   (first-use closures, table fills) so it is not charged per-iteration. *)
let window iters f =
  f ();
  let s0 = Gc.quick_stat () in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let after = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( after -. before,
    s1.Gc.promoted_words -. s0.Gc.promoted_words,
    s1.Gc.minor_collections - s0.Gc.minor_collections )

let noop () = ()

let measure_alloc ?(iterations = 1000) f =
  if iterations < 1 then
    invalid_arg "Runtime.measure_alloc: iterations must be >= 1";
  (* The overhead is deterministic, but take the min of three reads so a
     stray finalizer or signal between the reads cannot inflate it. *)
  let ov () =
    let w, _, _ = window iterations noop in
    w
  in
  let overhead = Float.min (ov ()) (Float.min (ov ()) (ov ())) in
  let raw, promoted, mcoll = window iterations f in
  let total = Float.max 0.0 (raw -. overhead) in
  {
    iterations;
    minor_words_total = total;
    minor_words_per_iter = total /. float_of_int iterations;
    promoted_words = promoted;
    minor_collections = mcoll;
  }

let pp_alloc ppf a =
  Format.fprintf ppf
    "%.3f minor words/iter (%.0f over %d iters, %.0f promoted, %d minor gc)"
    a.minor_words_per_iter a.minor_words_total a.iterations a.promoted_words
    a.minor_collections
