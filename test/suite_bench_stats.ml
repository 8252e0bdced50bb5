(* Tests for the continuous-benchmarking layer: robust statistics with a
   deterministic bootstrap, the versioned JSON report and its round trip,
   the runner's summaries, and the statistical regression gate. *)

let summary ~name ~median ~ci_low ~ci_high : Bench_stats.Runner.summary =
  {
    name;
    n = 20;
    batch = 8;
    median;
    mad = (ci_high -. ci_low) /. 4.0;
    mean = median;
    ci_low;
    ci_high;
  }

(* --- Stats --- *)

let test_stats_basics () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Bench_stats.Stats.median xs);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Bench_stats.Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Bench_stats.Stats.mean xs);
  Alcotest.(check (float 1e-9)) "q0 = min" 1.0
    (Bench_stats.Stats.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 5.0
    (Bench_stats.Stats.quantile xs 1.0);
  Alcotest.(check (float 1e-9)) "interpolated quartile" 2.0
    (Bench_stats.Stats.quantile xs 0.25);
  (* |x - 3| over 1..5 is [2; 1; 0; 1; 2], whose median is 1. *)
  Alcotest.(check (float 1e-9)) "mad" 1.0 (Bench_stats.Stats.mad xs);
  Alcotest.(check (float 1e-9)) "mad of constant data" 0.0
    (Bench_stats.Stats.mad [| 7.0; 7.0; 7.0 |]);
  Alcotest.check_raises "empty median"
    (Invalid_argument "Stats.quantile: empty") (fun () ->
      ignore (Bench_stats.Stats.median [||]))

let test_bootstrap_deterministic () =
  let xs = Array.init 40 (fun i -> float_of_int (i mod 7) +. 10.0) in
  let lo1, hi1 = Bench_stats.Stats.bootstrap_ci ~seed:42 xs in
  let lo2, hi2 = Bench_stats.Stats.bootstrap_ci ~seed:42 xs in
  Alcotest.(check (float 0.0)) "same seed, same low" lo1 lo2;
  Alcotest.(check (float 0.0)) "same seed, same high" hi1 hi2;
  Alcotest.(check bool) "interval is ordered" true (lo1 <= hi1);
  let m = Bench_stats.Stats.median xs in
  Alcotest.(check bool) "interval brackets the median" true
    (lo1 <= m && m <= hi1);
  let lo3, hi3 = Bench_stats.Stats.bootstrap_ci ~seed:43 xs in
  Alcotest.(check bool) "a different seed may move the interval" true
    (lo3 <= hi3);
  (* Constant data: the bootstrap collapses to a point. *)
  let lo, hi = Bench_stats.Stats.bootstrap_ci (Array.make 10 5.0) in
  Alcotest.(check (float 0.0)) "degenerate low" 5.0 lo;
  Alcotest.(check (float 0.0)) "degenerate high" 5.0 hi

(* --- Runner --- *)

let test_runner_measure () =
  let calls = ref 0 in
  let s =
    Bench_stats.Runner.measure ~warmup:1 ~repeats:5 ~min_batch_us:50.0
      ~name:"work" (fun () ->
        incr calls;
        ignore (Sys.opaque_identity (sin 1.0)))
  in
  Alcotest.(check string) "name" "work" s.name;
  Alcotest.(check int) "repetitions" 5 s.n;
  Alcotest.(check bool) "function actually ran" true (!calls > 0);
  Alcotest.(check bool) "batch calibrated" true (s.batch >= 1);
  Alcotest.(check bool) "median positive" true (s.median >= 0.0);
  Alcotest.(check bool) "CI ordered around the median" true
    (s.ci_low <= s.median && s.median <= s.ci_high);
  Alcotest.check_raises "too few repetitions"
    (Invalid_argument "Runner.measure: repeats >= 3") (fun () ->
      ignore (Bench_stats.Runner.measure ~repeats:2 ~name:"x" (fun () -> ())))

(* --- Report round trip --- *)

let test_report_roundtrip () =
  let results =
    [
      summary ~name:"a" ~median:10.0 ~ci_low:9.0 ~ci_high:11.0;
      summary ~name:"b" ~median:0.5 ~ci_low:0.4 ~ci_high:0.6;
    ]
  in
  let r =
    Bench_stats.Report.v ~label:"test" ~created_at:1234.5
      ~meta:[ ("host", "ci"); ("commit", "deadbeef") ]
      results
  in
  let r' = Bench_stats.Report.of_json (Bench_stats.Report.to_json r) in
  Alcotest.(check string) "label" r.label r'.label;
  Alcotest.(check (float 1e-9)) "created_at" r.created_at r'.created_at;
  Alcotest.(check (list (pair string string))) "meta" r.meta r'.meta;
  Alcotest.(check int) "result count" 2 (List.length r'.results);
  List.iter2
    (fun (a : Bench_stats.Runner.summary) (b : Bench_stats.Runner.summary) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check int) "n" a.n b.n;
      Alcotest.(check int) "batch" a.batch b.batch;
      Alcotest.(check (float 1e-9)) "median" a.median b.median;
      Alcotest.(check (float 1e-9)) "mad" a.mad b.mad;
      Alcotest.(check (float 1e-9)) "ci_low" a.ci_low b.ci_low;
      Alcotest.(check (float 1e-9)) "ci_high" a.ci_high b.ci_high)
    r.results r'.results

let test_report_schema_gate () =
  let bogus = {|{"schema": "wavefront-bench/v0", "label": "x",
                 "created_at": 0, "meta": {}, "results": []}|} in
  (match Bench_stats.Report.of_json bogus with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "schema mismatch must be rejected");
  match Bench_stats.Report.of_json "not json at all" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed input must be rejected"

(* --- The regression gate --- *)

let report results = Bench_stats.Report.v ~created_at:0.0 results

let find cmp name =
  match
    List.find_opt
      (fun (e : Bench_stats.Compare.entry) -> e.name = name)
      cmp.Bench_stats.Compare.entries
  with
  | Some e -> e
  | None -> Alcotest.failf "no entry for %s" name

let test_compare_verdicts () =
  let baseline =
    report
      [
        summary ~name:"slowed" ~median:10.0 ~ci_low:9.5 ~ci_high:10.5;
        summary ~name:"sped-up" ~median:10.0 ~ci_low:9.5 ~ci_high:10.5;
        summary ~name:"noisy" ~median:10.0 ~ci_low:5.0 ~ci_high:15.0;
        summary ~name:"tiny-shift" ~median:10.0 ~ci_low:9.99 ~ci_high:10.01;
        summary ~name:"gone" ~median:1.0 ~ci_low:0.9 ~ci_high:1.1;
      ]
  in
  let current =
    report
      [
        (* An artificially slowed run: 2x the baseline, disjoint CIs. *)
        summary ~name:"slowed" ~median:20.0 ~ci_low:19.0 ~ci_high:21.0;
        summary ~name:"sped-up" ~median:5.0 ~ci_low:4.8 ~ci_high:5.2;
        (* Also 2x, but the intervals overlap: statistically unresolved. *)
        summary ~name:"noisy" ~median:14.0 ~ci_low:8.0 ~ci_high:20.0;
        (* Disjoint CIs but the shift is under the 5% floor. *)
        summary ~name:"tiny-shift" ~median:10.2 ~ci_low:10.19
          ~ci_high:10.21;
        summary ~name:"new" ~median:3.0 ~ci_low:2.9 ~ci_high:3.1;
      ]
  in
  let cmp = Bench_stats.Compare.compare ~baseline ~current () in
  let verdict name = (find cmp name).verdict in
  Alcotest.(check string) "slowed run is flagged" "REGRESSION"
    (Bench_stats.Compare.verdict_name (verdict "slowed"));
  Alcotest.(check (float 1e-9)) "with its delta" 100.0
    (find cmp "slowed").delta_pct;
  Alcotest.(check string) "faster run is an improvement" "improvement"
    (Bench_stats.Compare.verdict_name (verdict "sped-up"));
  Alcotest.(check string) "overlapping CIs stay unchanged" "unchanged"
    (Bench_stats.Compare.verdict_name (verdict "noisy"));
  Alcotest.(check string) "sub-threshold shift stays unchanged" "unchanged"
    (Bench_stats.Compare.verdict_name (verdict "tiny-shift"));
  Alcotest.(check string) "new case" "added"
    (Bench_stats.Compare.verdict_name (verdict "new"));
  Alcotest.(check string) "dropped case" "removed"
    (Bench_stats.Compare.verdict_name (verdict "gone"));
  (match Bench_stats.Compare.regressions cmp with
  | [ e ] -> Alcotest.(check string) "only the slowed case" "slowed" e.name
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  (* A stricter threshold turns the sub-5% shift into a regression. *)
  let strict =
    Bench_stats.Compare.compare ~min_delta_pct:1.0 ~baseline ~current ()
  in
  Alcotest.(check string) "threshold is adjustable" "REGRESSION"
    (Bench_stats.Compare.verdict_name (find strict "tiny-shift").verdict)

let test_compare_self_is_clean () =
  let r =
    report [ summary ~name:"a" ~median:10.0 ~ci_low:9.0 ~ci_high:11.0 ]
  in
  let cmp = Bench_stats.Compare.compare ~baseline:r ~current:r () in
  Alcotest.(check int) "no regressions against itself" 0
    (List.length (Bench_stats.Compare.regressions cmp));
  Alcotest.(check string) "unchanged" "unchanged"
    (Bench_stats.Compare.verdict_name (find cmp "a").verdict)

let suite =
  [
    ( "bench.stats",
      [
        Alcotest.test_case "median / quantile / mad" `Quick test_stats_basics;
        Alcotest.test_case "bootstrap is deterministic" `Quick
          test_bootstrap_deterministic;
      ] );
    ( "bench.runner",
      [ Alcotest.test_case "measure" `Quick test_runner_measure ] );
    ( "bench.report",
      [
        Alcotest.test_case "JSON round trip" `Quick test_report_roundtrip;
        Alcotest.test_case "schema gate" `Quick test_report_schema_gate;
      ] );
    ( "bench.compare",
      [
        Alcotest.test_case "verdicts" `Quick test_compare_verdicts;
        Alcotest.test_case "self comparison is clean" `Quick
          test_compare_self_is_clean;
      ] );
  ]
