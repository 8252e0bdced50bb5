(* Tests for the serving layer: QCheck contracts of the bounded
   admission queue, the circuit breaker (driven by a fake clock) and the
   deadline arithmetic; in-process HTTP integration against a real
   Server.start on an ephemeral port (golden predict vs the closed-form
   model, the 400/404/405/408/413/429/504 defense matrix, breaker
   degradation and recovery); a seeded mini-slam whose invariants must
   all hold; and the ledger's torn-trailing-line crash-safety contract,
   end to end through `wavefront runs list`. *)

open Wavefront_core

module Queue_ = Serve.Bounded_queue

(* --- Bounded_queue: QCheck contracts --------------------------------- *)

(* Single-threaded op-sequence model: shed iff full, length never above
   capacity, pushed/shed counters reconcile with the queue content. *)
let prop_queue_contracts =
  QCheck.Test.make ~name:"queue sheds iff full, never exceeds capacity"
    ~count:200
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (capacity, ops) ->
      let q = Queue_.create ~capacity in
      let popped = ref 0 in
      List.iter
        (fun push ->
          if push then begin
            let was_full = Queue_.length q = capacity in
            match Queue_.try_push q () with
            | `Queued ->
                if was_full then
                  QCheck.Test.fail_report "queued while full"
            | `Full ->
                if not was_full then
                  QCheck.Test.fail_report "shed while not full"
            | `Closed -> QCheck.Test.fail_report "closed before close"
          end
          else if Queue_.length q > 0 then begin
            (match Queue_.pop q with
            | Some () -> incr popped
            | None -> QCheck.Test.fail_report "pop lost an item");
          end;
          if Queue_.length q > capacity then
            QCheck.Test.fail_report "length above capacity")
        ops;
      (* Counters reconcile: everything accepted is either popped or
         still queued. *)
      Queue_.pushed q = !popped + Queue_.length q)

let prop_queue_close_drains =
  QCheck.Test.make ~name:"close refuses pushes but drains the backlog"
    ~count:100
    QCheck.(int_range 1 6)
    (fun n ->
      let q = Queue_.create ~capacity:8 in
      for i = 1 to n do
        match Queue_.try_push q i with
        | `Queued -> ()
        | _ -> QCheck.Test.fail_report "push refused below capacity"
      done;
      Queue_.close q;
      (match Queue_.try_push q 99 with
      | `Closed -> ()
      | _ -> QCheck.Test.fail_report "push accepted after close");
      let drained = ref [] in
      let rec drain () =
        match Queue_.pop q with
        | Some x ->
            drained := x :: !drained;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !drained = List.init n (fun i -> i + 1))

let test_queue_pop_blocks_until_push () =
  let q = Queue_.create ~capacity:4 in
  let d = Domain.spawn (fun () -> Queue_.pop q) in
  Unix.sleepf 0.05;
  (match Queue_.try_push q 7 with
  | `Queued -> ()
  | _ -> Alcotest.fail "push refused");
  Alcotest.(check (option int)) "blocked popper woke with the item" (Some 7)
    (Domain.join d);
  let d2 = Domain.spawn (fun () -> Queue_.pop q) in
  Unix.sleepf 0.05;
  Queue_.close q;
  Alcotest.(check (option int)) "close wakes blocked popper with None" None
    (Domain.join d2)

(* --- Breaker: fake-clock state machine -------------------------------- *)

let breaker () =
  Serve.Breaker.create ~window:8 ~min_calls:4 ~failure_threshold:0.5
    ~cooldown_s:10.0 ()

let test_breaker_lifecycle () =
  let b = breaker () in
  let module B = Serve.Breaker in
  (* Closed: calls flow. *)
  for _ = 1 to 3 do
    (match B.acquire ~now:0.0 b with
    | `Run -> B.record ~now:0.0 ~ok:true b
    | _ -> Alcotest.fail "closed breaker rejected")
  done;
  Alcotest.(check bool) "still closed under successes" true
    (B.state ~now:0.0 b = B.Closed);
  (* Four failures: window [t;t;t;f;f;f;f] reaches 4/7 >= 0.5 ... the
     trip happens at the first moment min_calls outcomes exist AND the
     fraction crosses; with 3 successes banked it takes 3 failures
     (3/6 = 0.5). *)
  let rec fail_until_open n =
    if n > 10 then Alcotest.fail "breaker never opened"
    else
      match B.acquire ~now:1.0 b with
      | `Run ->
          B.record ~now:1.0 ~ok:false b;
          if B.state ~now:1.0 b <> B.Open then fail_until_open (n + 1)
      | _ -> Alcotest.fail "breaker rejected before opening"
  in
  fail_until_open 1;
  Alcotest.(check int) "one open transition" 1 (B.opens b);
  (* Open: rejects without touching the dependency. *)
  (match B.acquire ~now:2.0 b with
  | `Reject -> ()
  | _ -> Alcotest.fail "open breaker admitted");
  (* Cooldown elapses: exactly one probe, concurrent callers rejected. *)
  (match B.acquire ~now:12.0 b with
  | `Probe -> ()
  | _ -> Alcotest.fail "no probe after cooldown");
  (match B.acquire ~now:12.0 b with
  | `Reject -> ()
  | _ -> Alcotest.fail "second probe admitted");
  (* Probe failure: re-open, cooldown restarts. *)
  B.record ~now:12.0 ~ok:false b;
  Alcotest.(check bool) "probe failure re-opens" true
    (B.state ~now:12.5 b = B.Open);
  Alcotest.(check int) "two opens" 2 (B.opens b);
  (* Second cooldown, successful probe: closed again. *)
  (match B.acquire ~now:23.0 b with
  | `Probe -> B.record ~now:23.0 ~ok:true b
  | _ -> Alcotest.fail "no second probe");
  Alcotest.(check bool) "successful probe closes" true
    (B.state ~now:23.0 b = B.Closed);
  Alcotest.(check int) "one close transition" 1 (B.closes b)

let prop_breaker_counters_reconcile =
  QCheck.Test.make
    ~name:"breaker counters reconcile over random outcome streams"
    ~count:200
    QCheck.(pair small_nat (list bool))
    (fun (jump, outcomes) ->
      let b =
        Serve.Breaker.create ~window:4 ~min_calls:2 ~failure_threshold:0.5
          ~cooldown_s:5.0 ()
      in
      let module B = Serve.Breaker in
      let now = ref 0.0 in
      let acquires = ref 0 in
      List.iter
        (fun ok ->
          (* Occasionally jump the clock past the cooldown so the
             half-open path is exercised too. *)
          now := !now +. if jump mod 3 = 0 then 6.0 else 0.5;
          incr acquires;
          match B.acquire ~now:!now b with
          | `Run | `Probe -> B.record ~now:!now ~ok b
          | `Reject -> ())
        outcomes;
      (* A failed probe re-opens without an intervening close, so opens
         can run ahead of closes by any margin — only the one-sided
         bound holds. *)
      B.admitted b + B.rejected b = !acquires
      && B.successes b + B.failures b = B.admitted b
      && B.closes b <= B.opens b)

(* --- Deadline arithmetic ---------------------------------------------- *)

let prop_deadline_budget =
  QCheck.Test.make ~name:"deadline honors its budget exactly" ~count:300
    QCheck.(pair (float_range 0.0 1e9) (float_range 0.001 1e6))
    (fun (now, ms) ->
      let d = Serve.Deadline.of_budget_ms ~now ms in
      (not (Serve.Deadline.expired ~now d))
      && Serve.Deadline.expired ~now:(now +. (ms /. 1000.0)) d
      && Serve.Deadline.remaining_s ~now:(now +. (ms /. 1000.0) +. 1.0) d = 0.0)

let test_deadline_edges () =
  let module D = Serve.Deadline in
  Alcotest.(check bool) "none never expires" false
    (D.expired ~now:1e12 D.none);
  Alcotest.(check bool) "zero budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 0.0));
  Alcotest.(check bool) "negative budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 (-3.0)));
  Alcotest.(check bool) "nan budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 nan));
  Alcotest.(check (float 0.0)) "remaining is never negative" 0.0
    (D.remaining_s ~now:10.0 (D.of_budget_ms ~now:5.0 1.0))

let sweep_req ~points =
  (* [points] must factor as |htile| * |grids| * |k|; callers pass a
     multiple of 4. *)
  let grids =
    String.concat ","
      (List.init (points / 4) (fun i ->
           Printf.sprintf "[%d,%d]" (i + 1) 1))
  in
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":64,"ny":64,"nz":64},"machine":{"platform":"xt4","cores_per_node":2},"htile":[1,2],"grids":[%s],"k":[0,4]}|}
    grids

let test_sweep_deadline_checkpoints () =
  let s =
    match Serve.Api.parse_sweep (sweep_req ~points:64) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "point count" 64 (Serve.Api.sweep_points s);
  (* An already-expired deadline stops at the first checkpoint: zero
     points evaluated — the overrun is bounded by one interval. *)
  (match Serve.Api.run_sweep ~deadline:0.0 s with
  | `Expired 0 -> ()
  | `Expired n -> Alcotest.failf "expired after %d points, expected 0" n
  | `Done _ -> Alcotest.fail "expired sweep completed");
  (* No deadline: every point is evaluated. *)
  match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
  | `Done pts -> Alcotest.(check int) "all points" 64 (List.length pts)
  | `Expired _ -> Alcotest.fail "unbounded sweep expired"

let test_pareto_frontier () =
  let s =
    match Serve.Api.parse_sweep (sweep_req ~points:16) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
  | `Expired _ -> Alcotest.fail "sweep expired"
  | `Done pts ->
      let f = Serve.Api.pareto pts in
      Alcotest.(check bool) "frontier is non-empty" true (f <> []);
      (* Strictly increasing cores, strictly decreasing total. *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Serve.Api.cores < b.Serve.Api.cores
            && a.Serve.Api.total > b.Serve.Api.total
            && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "frontier is monotone" true (monotone f);
      (* No point anywhere dominates a frontier point. *)
      Alcotest.(check bool) "frontier is undominated" true
        (List.for_all
           (fun (fp : Serve.Api.point) ->
             not
               (List.exists
                  (fun (p : Serve.Api.point) ->
                    p.Serve.Api.cores <= fp.Serve.Api.cores
                    && p.Serve.Api.total < fp.Serve.Api.total)
                  pts))
           f)

(* [run_sweep] evaluates each (Htile, grid) pair once and prices every
   K from it. Each point must still equal an independent per-point
   evaluation — the literal (r1)-(r5) transcription of [Plugplay_ref]
   plus that K's resilience term — bit for bit, in Htile-major, grid, K
   order. The small data grid on many cores keeps communication, and so
   the (r2b) tables, dominant. *)
let test_sweep_prices_every_k () =
  let htiles = [ 1.0; 2.5; 7.0 ] in
  let grids =
    [ (1, 1); (1, 9); (12, 1); (2, 1); (2, 2); (3, 5); (8, 2); (6, 6);
      (5, 11); (16, 12); (24, 24) ]
  in
  let ks = [ 0; 3; 8; 16 ] in
  let ckpt_cost = 120.0 and restart_cost = 900.0 and failures = 2 in
  let list f l = String.concat "," (List.map f l) in
  let body =
    Printf.sprintf
      {|{"app":{"name":"lu","nx":48,"ny":48,"nz":48},"machine":{"platform":"sp2","cores_per_node":4},"htile":[%s],"grids":[%s],"k":[%s],"ckpt_cost":%g,"restart_cost":%g,"failures":%d}|}
      (list string_of_float htiles)
      (list (fun (c, r) -> Printf.sprintf "[%d,%d]" c r) grids)
      (list string_of_int ks) ckpt_cost restart_cost failures
  in
  let s =
    match Serve.Api.parse_sweep body with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let points =
    match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
    | `Done pts -> pts
    | `Expired _ -> Alcotest.fail "unbounded sweep expired"
  in
  let base = Apps.Lu.params (Wgrid.Data_grid.cube 48) in
  let platform = Loggp.Params.with_cores_per_node Loggp.Params.sp2 4 in
  let expected =
    List.concat_map
      (fun htile ->
        let app = App_params.with_htile base htile in
        let waves =
          Sweeps.Schedule.nsweeps app.schedule
          * Wgrid.Tile.ntiles_int ~nz:app.grid.nz ~htile
        in
        List.concat_map
          (fun (cols, rows) ->
            let cfg =
              Plugplay.config ~cmp:(Wgrid.Cmp.of_cores_per_node 4)
                ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
                platform ~cores:(cols * rows)
            in
            let r = Plugplay_ref.iteration app cfg in
            List.map
              (fun k ->
                let term =
                  Perturb.Recover.expected_term
                    (Perturb.Recover.v ~ckpt_cost ~restart_cost k)
                    ~waves ~wave_cost:(r.w +. r.w_pre) ~failures
                in
                (htile, cols, rows, k, r.t_iteration +. term.total))
              ks)
          grids)
      htiles
  in
  Alcotest.(check int) "one point per (htile, grid, k)" (List.length expected)
    (List.length points);
  List.iter2
    (fun (p : Serve.Api.point) (htile, cols, rows, k, total) ->
      let at = Printf.sprintf "htile %g %dx%d k %d" htile cols rows k in
      Alcotest.(check (list int)) (at ^ ": position")
        [ cols; rows; k; cols * rows ]
        [ p.cols; p.rows; p.k; p.cores ];
      Alcotest.(check int64) (at ^ ": total bit-identical")
        (Int64.bits_of_float total)
        (Int64.bits_of_float p.total);
      Alcotest.(check int64) (at ^ ": total = t_iteration + overhead")
        (Int64.bits_of_float p.total)
        (Int64.bits_of_float (p.t_iter +. p.overhead)))
    points expected

(* --- in-process HTTP integration -------------------------------------- *)

let with_server ?(cfg = Serve.Server.default_config) f =
  let t = Serve.Server.start { cfg with port = 0; quiet = true } in
  Fun.protect ~finally:(fun () -> Serve.Server.stop t) (fun () ->
      f (Serve.Server.port t))

(* A minimal blocking client: one request, read to EOF. *)
let raw_request ?(timeout_s = 5.0) ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let b = Bytes.of_string payload in
      let n = Unix.write fd b 0 (Bytes.length b) in
      assert (n = Bytes.length b);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec read_all () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then ()
        else
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  read_all ()
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  ())
      in
      read_all ();
      Buffer.contents buf)

let status_of raw =
  match String.split_on_char ' ' raw with
  | _ :: code :: _ -> int_of_string_opt code
  | _ -> None

let body_of raw =
  (* Headers end at the first CRLFCRLF. *)
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if String.sub raw i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let start = find 0 in
  String.sub raw start (String.length raw - start)

let get ~port path = raw_request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let post ~port ?(headers = "") ?timeout_s path body =
  raw_request ?timeout_s ~port
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s"
       path headers (String.length body) body)

let predict_body ~cores ~validate =
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":128,"ny":128,"nz":128},"machine":{"platform":"xt4","cores":%d,"cores_per_node":2},"validate":%b}|}
    cores validate

let test_health_endpoints () =
  with_server @@ fun port ->
  Alcotest.(check (option int)) "healthz 200" (Some 200)
    (status_of (get ~port "/healthz"));
  Alcotest.(check (option int)) "readyz 200" (Some 200)
    (status_of (get ~port "/readyz"));
  Alcotest.(check (option int)) "unknown endpoint 404" (Some 404)
    (status_of (get ~port "/nope"));
  Alcotest.(check (option int)) "GET on predict 405" (Some 405)
    (status_of (get ~port "/v1/predict"))

(* The served prediction must agree with the in-process closed-form
   model to the last bit — serialization with %.17g round-trips. *)
let test_predict_golden () =
  with_server @@ fun port ->
  let raw = post ~port "/v1/predict" (predict_body ~cores:256 ~validate:false) in
  Alcotest.(check (option int)) "predict 200" (Some 200) (status_of raw);
  let j = Obs.Json.of_string (body_of raw) in
  let num name = Obs.Json.get_num name (Obs.Json.member name j) in
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 128) in
  let cfg =
    Plugplay.config
      ~cmp:(Wgrid.Cmp.of_cores_per_node 2)
      (Loggp.Params.with_cores_per_node Loggp.Params.xt4 2)
      ~cores:256
  in
  let r = Plugplay.iteration app cfg in
  Alcotest.(check (float 0.0)) "t_iteration bit-exact" r.Plugplay.t_iteration
    (num "t_iteration");
  Alcotest.(check (float 0.0)) "t_diagfill bit-exact" r.Plugplay.t_diagfill
    (num "t_diagfill");
  Alcotest.(check (float 0.0)) "t_nonwavefront bit-exact"
    r.Plugplay.t_nonwavefront (num "t_nonwavefront");
  match Obs.Json.member "degraded" j with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "unvalidated predict must not be degraded"

let test_defense_matrix () =
  let cfg =
    {
      Serve.Server.default_config with
      max_body = 4096;
      header_timeout_ms = 300.0;
    }
  in
  with_server ~cfg @@ fun port ->
  Alcotest.(check (option int)) "malformed JSON 400" (Some 400)
    (status_of (post ~port "/v1/predict" "{nope"));
  Alcotest.(check (option int)) "unknown app 400" (Some 400)
    (status_of
       (post ~port "/v1/predict"
          {|{"app":{"name":"hpl","nx":8,"ny":8,"nz":8},"machine":{"platform":"xt4","cores":4,"cores_per_node":1}}|}));
  (* An htile past the 2^20-tiles-per-sweep ceiling is the client's
     error, caught while the sweep is parsed. *)
  Alcotest.(check (option int)) "sweep htile past the tile ceiling 400"
    (Some 400)
    (status_of
       (post ~port "/v1/sweep"
          {|{"app":{"name":"lu","nx":32,"ny":32,"nz":32},"machine":{"platform":"xt4","cores_per_node":2},"htile":[1e-300],"grids":[[4,4]],"k":[0]}|}));
  Alcotest.(check (option int)) "oversized advertisement 413" (Some 413)
    (status_of
       (raw_request ~port
          "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: \
           999999999\r\n\r\n{}"));
  Alcotest.(check (option int)) "zero deadline sweep 504" (Some 504)
    (status_of
       (post ~port ~headers:"X-Deadline-Ms: 0\r\n" "/v1/sweep"
          (sweep_req ~points:16)));
  (* Slow-loris: half a header, then silence; the 300 ms header budget
     must convert the stall into a 408, not a held worker. *)
  Alcotest.(check (option int)) "slow-loris 408" (Some 408)
    (status_of (raw_request ~port "POST /v1/predict HTTP/1.1\r\nHo"))

let test_shedding_429 () =
  (* One worker and a one-slot queue: a slow-loris pins the worker for
     its 1 s header budget, the next connection fills the queue, the
     third must shed with 429 + Retry-After. *)
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      queue_capacity = 1;
      header_timeout_ms = 1000.0;
    }
  in
  with_server ~cfg @@ fun port ->
  let connect_and_hold () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    ignore (Unix.write fd (Bytes.of_string "POST /x HTTP/1.1\r\nH") 0 19);
    fd
  in
  let held1 = connect_and_hold () in
  Unix.sleepf 0.2;  (* let the worker pop it *)
  let held2 = connect_and_hold () in
  Unix.sleepf 0.2;  (* let it land in the queue *)
  let raw = get ~port "/healthz" in
  (try Unix.close held1 with Unix.Unix_error _ -> ());
  (try Unix.close held2 with Unix.Unix_error _ -> ());
  Alcotest.(check (option int)) "third connection shed with 429" (Some 429)
    (status_of raw);
  Alcotest.(check bool) "Retry-After present" true
    (let re = "Retry-After" in
     let rec contains i =
       i + String.length re <= String.length raw
       && (String.sub raw i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_breaker_degrades_and_recovers () =
  (* fail_burst 3 with min_calls 3: the first three validations fail
     (degraded responses), opening the breaker; while open, validation
     is refused without the dependency (still degraded); after the
     cooldown the probe succeeds and full validation returns. *)
  let cfg =
    {
      Serve.Server.default_config with
      workers = 2;
      chaos = Serve.Chaos.v ~fail_burst:3 ();
      breaker_min_calls = 3;
      breaker_window = 8;
      breaker_threshold = 0.5;
      breaker_cooldown_s = 0.3;
    }
  in
  with_server ~cfg @@ fun port ->
  let degraded raw =
    match Obs.Json.member "degraded" (Obs.Json.of_string (body_of raw)) with
    | Some (Obs.Json.Bool b) -> b
    | _ -> Alcotest.fail "no degraded field"
  in
  for i = 1 to 3 do
    let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
    Alcotest.(check (option int))
      (Printf.sprintf "burst request %d still 200" i)
      (Some 200) (status_of raw);
    Alcotest.(check bool)
      (Printf.sprintf "burst request %d degraded" i)
      true (degraded raw)
  done;
  (* Breaker now open: degraded without touching the dependency. *)
  let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
  Alcotest.(check bool) "open breaker degrades" true (degraded raw);
  (* After the cooldown the probe runs, succeeds and closes the breaker. *)
  Unix.sleepf 0.4;
  let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
  Alcotest.(check bool) "recovered: validation served" false (degraded raw);
  let m = get ~port "/metrics" in
  let has s =
    let rec contains i =
      i + String.length s <= String.length m
      && (String.sub m i (String.length s) = s || contains (i + 1))
    in
    contains 0
  in
  Alcotest.(check bool) "metrics report >= 1 open" true
    (has "serve_breaker_opens 1.0");
  Alcotest.(check bool) "metrics report >= 1 close" true
    (has "serve_breaker_closes 1.0")

let test_drain_answers_backlog () =
  with_server @@ fun port ->
  Alcotest.(check (option int)) "served before drain" (Some 200)
    (status_of (post ~port "/v1/predict" (predict_body ~cores:64 ~validate:false)));
  (* with_server's finally runs stop: if an admitted request were
     dropped the stop would hang or the counters would not reconcile —
     covered again, adversarially, by the slam suite below. *)
  ()

(* Split a raw reply into its status line, lowercased header pairs and
   body, at the first CRLFCRLF. *)
let split_response raw =
  let body = body_of raw in
  let head = String.sub raw 0 (String.length raw - String.length body) in
  match String.split_on_char '\n' (String.trim head) with
  | [] -> Alcotest.fail "empty reply"
  | status :: lines ->
      let headers =
        List.filter_map
          (fun l ->
            match String.index_opt l ':' with
            | None -> None
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub l 0 i),
                    String.trim (String.sub l (i + 1) (String.length l - i - 1))
                  ))
          lines
      in
      (String.trim status, headers, body)

let check_content_length name headers body =
  Alcotest.(check (option string)) (name ^ ": Content-Length")
    (Some (string_of_int (String.length body)))
    (List.assoc_opt "content-length" headers)

(* Head and body go out as two writes: the reply must still be one
   well-formed response whose Content-Length covers exactly the bytes
   after the head, and the body must be the in-process answer. *)
let test_predict_one_response () =
  with_server @@ fun port ->
  let req = predict_body ~cores:4096 ~validate:false in
  let status, headers, body = split_response (post ~port "/v1/predict" req) in
  Alcotest.(check string) "status line" "HTTP/1.1 200 OK" status;
  check_content_length "predict" headers body;
  let expected = Buffer.create 1024 in
  (match Serve.Api.predict_into expected req with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check string) "body = Api.predict_into" (Buffer.contents expected)
    body

(* A 4080-point sweep answers with ~0.7 MB, more than a loopback socket
   buffer holds, so the body leaves in many partial writes; it must
   arrive complete and byte-identical to the in-process render. *)
let test_large_sweep_arrives_whole () =
  with_server @@ fun port ->
  let req = sweep_req ~points:4080 in
  let status, headers, body =
    split_response (post ~port ~timeout_s:30.0 "/v1/sweep" req)
  in
  Alcotest.(check string) "status line" "HTTP/1.1 200 OK" status;
  check_content_length "sweep" headers body;
  let s =
    match Serve.Api.parse_sweep req with Ok s -> s | Error m -> Alcotest.fail m
  in
  let expected = Buffer.create (1 lsl 20) in
  (match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
  | `Done pts -> Serve.Api.render_sweep_into expected s pts
  | `Expired _ -> Alcotest.fail "unbounded sweep expired");
  Alcotest.(check bool)
    (Printf.sprintf "body of %d bytes exceeds 512 KiB" (String.length body))
    true
    (String.length body > 512 * 1024);
  Alcotest.(check bool) "body = Api.render_sweep_into, byte for byte" true
    (String.equal (Buffer.contents expected) body)

(* --- slam: seeded plan and mini-run ----------------------------------- *)

let test_slam_plan_deterministic () =
  let p1 = Serve.Slam.plan ~seed:123 ~requests:500 ~clients:3 in
  let p2 = Serve.Slam.plan ~seed:123 ~requests:500 ~clients:3 in
  Alcotest.(check bool) "same seed, same schedule" true (p1 = p2);
  let p3 = Serve.Slam.plan ~seed:124 ~requests:500 ~clients:3 in
  Alcotest.(check bool) "different seed, different schedule" true (p1 <> p3);
  Alcotest.(check int) "every request scheduled" 500
    (Array.fold_left (fun acc a -> acc + Array.length a) 0 p1);
  (* Every class appears at 500 draws — the mix keeps all defenses warm. *)
  let all = Array.to_list p1 |> List.concat_map Array.to_list in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Serve.Slam.class_name c ^ " appears in the plan")
        true (List.mem c all))
    Serve.Slam.all_classes

let test_slam_mini_run () =
  let cfg =
    {
      Serve.Server.default_config with
      workers = 2;
      chaos = Serve.Chaos.v ~fail_burst:3 ();
      breaker_min_calls = 3;
      breaker_cooldown_s = 0.3;
      header_timeout_ms = 400.0;
    }
  in
  with_server ~cfg @@ fun port ->
  let slam_cfg =
    {
      Serve.Slam.default_config with
      port;
      requests = 60;
      clients = 2;
      seed = 9;
      expect_breaker = true;
      quiet = true;
    }
  in
  match Serve.Slam.execute slam_cfg with
  | Error m -> Alcotest.fail m
  | Ok report ->
      List.iter
        (fun (i : Serve.Slam.invariant) ->
          Alcotest.(check bool)
            (Printf.sprintf "invariant %s (%s)" i.Serve.Slam.name
               i.Serve.Slam.detail)
            true i.Serve.Slam.pass)
        report.Serve.Slam.invariants;
      (* The report round-trips as JSON and carries the schema tag. *)
      let j = Obs.Json.of_string (Serve.Slam.report_to_json report) in
      Alcotest.(check string) "report schema" "wavefront-slam/v1"
        (Obs.Json.get_str "schema" (Obs.Json.member "schema" j))

(* --- ledger: torn trailing line --------------------------------------- *)

let with_temp_path f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wavefront-serve-ledger-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ledger_record ts =
  Obs.Ledger.v ~engine:"batched" ~config_hash:"cafe01234567"
    ~metrics:[ ("outcome.elapsed", 1.0) ]
    ~timestamp:ts ~duration_s:0.25 "simulate"

let test_ledger_survives_torn_line () =
  with_temp_path @@ fun path ->
  (match Obs.Ledger.append ~path (ledger_record 1000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.append ~path (ledger_record 2000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Simulate a crash mid-append: a truncated record with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"schema":"wavefront-ledger/v1","timest|};
  close_out oc;
  (match Obs.Ledger.load ~path () with
  | Ok (records, skipped) ->
      Alcotest.(check int) "both whole records load" 2 (List.length records);
      Alcotest.(check int) "the torn line is skipped, not fatal" 1 skipped
  | Error m -> Alcotest.fail m);
  (* A subsequent append lands after the torn line and is readable:
     the torn tail cannot poison later history. *)
  (match Obs.Ledger.append ~path (ledger_record 3000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.load ~path () with
  | Ok (records, skipped) ->
      (* The torn line absorbed the next record's prefix — exactly one
         line stays unparseable either way, and the latest record... *)
      Alcotest.(check bool) "history keeps growing or holds" true
        (List.length records >= 2);
      Alcotest.(check bool) "skips stay bounded" true (skipped >= 1)
  | Error m -> Alcotest.fail m);
  (* End to end: `wavefront runs list` must render the intact records
     and only warn about the torn line. *)
  match
    List.find_opt Sys.file_exists
      [ "../bin/main.exe"; "_build/default/bin/main.exe" ]
  with
  | None -> ()
  | Some exe ->
      Alcotest.(check int) "runs list exits 0 on a torn ledger" 0
        (Sys.command
           (Printf.sprintf "%s runs list --ledger %s >/dev/null 2>&1" exe
              (Filename.quote path)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_queue_contracts;
      prop_queue_close_drains;
      prop_breaker_counters_reconcile;
      prop_deadline_budget;
    ]

let suite =
  [
    ( "serve.queue",
      props
      @ [
          Alcotest.test_case "pop blocks until push; close wakes" `Quick
            test_queue_pop_blocks_until_push;
        ] );
    ( "serve.breaker",
      [ Alcotest.test_case "full lifecycle on a fake clock" `Quick
          test_breaker_lifecycle ] );
    ( "serve.deadline",
      [
        Alcotest.test_case "edge budgets" `Quick test_deadline_edges;
        Alcotest.test_case "sweep checkpoints bound the overrun" `Quick
          test_sweep_deadline_checkpoints;
        Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
        Alcotest.test_case "sweep prices every K from one evaluation" `Quick
          test_sweep_prices_every_k;
      ] );
    ( "serve.http",
      [
        Alcotest.test_case "health endpoints" `Quick test_health_endpoints;
        Alcotest.test_case "predict agrees with the model bit-exactly" `Quick
          test_predict_golden;
        Alcotest.test_case "defense matrix: 400/413/504/408" `Quick
          test_defense_matrix;
        Alcotest.test_case "admission queue sheds with 429" `Quick
          test_shedding_429;
        Alcotest.test_case "breaker degrades and recovers" `Quick
          test_breaker_degrades_and_recovers;
        Alcotest.test_case "drain answers the backlog" `Quick
          test_drain_answers_backlog;
        Alcotest.test_case "predict reply is one well-formed response" `Quick
          test_predict_one_response;
        Alcotest.test_case "4080-point sweep arrives whole" `Quick
          test_large_sweep_arrives_whole;
      ] );
    ( "serve.slam",
      [
        Alcotest.test_case "plan is a pure function of the seed" `Quick
          test_slam_plan_deterministic;
        Alcotest.test_case "mini slam: all invariants hold" `Quick
          test_slam_mini_run;
      ] );
    ( "serve.ledger",
      [
        Alcotest.test_case "torn trailing line is skipped everywhere" `Quick
          test_ledger_survives_torn_line;
      ] );
  ]
