(* The chaos client. Each client domain executes its slice of the seeded
   plan with one connection per request (Connection: close), records
   (class, status, latency) triples, and the main domain folds them into
   the invariant verdicts. *)

type cls =
  | Predict_plain
  | Predict_validate
  | Sweep_small
  | Healthz
  | Malformed
  | Oversized
  | Slow_loris
  | Early_close
  | Expired_sweep

let class_name = function
  | Predict_plain -> "predict"
  | Predict_validate -> "predict-validate"
  | Sweep_small -> "sweep"
  | Healthz -> "healthz"
  | Malformed -> "malformed"
  | Oversized -> "oversized"
  | Slow_loris -> "slow-loris"
  | Early_close -> "early-close"
  | Expired_sweep -> "expired-sweep"

let all_classes =
  [
    Predict_plain;
    Predict_validate;
    Sweep_small;
    Healthz;
    Malformed;
    Oversized;
    Slow_loris;
    Early_close;
    Expired_sweep;
  ]

(* Weights out of 100; heavy on the valid traffic, enough hostile share
   to keep every defense warm. *)
let weights =
  [
    (Predict_plain, 25);
    (Predict_validate, 20);
    (Sweep_small, 10);
    (Healthz, 5);
    (Malformed, 12);
    (Oversized, 8);
    (Slow_loris, 3);
    (Early_close, 5);
    (Expired_sweep, 12);
  ]

let draw_class prng =
  let roll = int_of_float (Perturb.Prng.uniform prng 100.0) in
  let rec pick acc = function
    | [] -> Predict_plain
    | (c, w) :: rest -> if roll < acc + w then c else pick (acc + w) rest
  in
  pick 0 weights

let plan ~seed ~requests ~clients =
  if requests < 0 then invalid_arg "Slam.plan: requests must be >= 0";
  if clients < 1 then invalid_arg "Slam.plan: clients must be >= 1";
  Array.init clients (fun client ->
      let n = (requests / clients) + if client < requests mod clients then 1 else 0 in
      let prng = Perturb.Prng.create ~seed ~stream:client in
      Array.init n (fun _ -> draw_class prng))

(* --- request corpus -------------------------------------------------- *)

let predict_body ~validate =
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":256,"ny":256,"nz":256},"machine":{"platform":"xt4","cores":1024,"cores_per_node":2},"validate":%b}|}
    validate

let sweep_body =
  {|{"app":{"name":"sweep3d","nx":128,"ny":128,"nz":128},"machine":{"platform":"xt4","cores_per_node":2},"htile":[1,2],"grids":[[8,8],[16,8],[16,16]],"k":[0,8]}|}

let big_sweep_body =
  {|{"app":{"name":"lu","nx":512,"ny":512,"nz":512},"machine":{"platform":"sp2","cores_per_node":1},"htile":[1,2,4,8],"grids":[[32,32],[64,32],[64,64],[128,64]],"k":[0,4,16,64]}|}

let malformed_bodies =
  [|
    "{not json at all";
    {|{"app":{"name":"sweep3d"}}|};
    {|{"app":{"name":"hpl","nx":64,"ny":64,"nz":64},"machine":{"platform":"xt4","cores":16,"cores_per_node":2}}|};
    {|{"app":{"name":"lu","nx":-4,"ny":64,"nz":64},"machine":{"platform":"xt4","cores":16,"cores_per_node":2}}|};
    {|{"app":{"name":"lu","nx":64,"ny":64,"nz":64},"machine":{"platform":"mars","cores":16,"cores_per_node":2}}|};
    "[]";
  |]

let post path ?(headers = []) body =
  let b = Buffer.create (256 + String.length body) in
  Printf.bprintf b "POST %s HTTP/1.1\r\nHost: slam\r\n" path;
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
  Printf.bprintf b "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body;
  Buffer.contents b

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: slam\r\n\r\n" path

(* --- a tiny blocking HTTP client ------------------------------------- *)

type response = Status of int * string | No_response | Garbage

let send_all fd s =
  let b = Bytes.of_string s in
  let total = Bytes.length b in
  let rec go pos =
    if pos >= total then true
    else
      match Unix.write fd b pos (total - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* Read until EOF or deadline; the daemon closes after each response. *)
let read_all fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then `Timeout (Buffer.contents buf)
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> `Timeout (Buffer.contents buf)
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof (Buffer.contents buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> `Eof (Buffer.contents buf))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let parse_status raw =
  if String.length raw = 0 then No_response
  else
    let line =
      match String.index_opt raw '\n' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match String.split_on_char ' ' (String.trim line) with
    | version :: code :: _
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
        match int_of_string_opt code with
        | Some c when c >= 100 && c < 600 -> Status (c, raw)
        | _ -> Garbage)
    | _ -> Garbage

let connect ~host ~port ~timeout_s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    Unix.set_nonblock fd;
    (try Unix.connect fd addr
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
    (match Unix.select [] [ fd ] [] timeout_s with
    | _, [], _ -> failwith "connect timeout"
    | _ -> ());
    (match Unix.getsockopt_error fd with
    | None -> ()
    | Some e -> raise (Unix.Unix_error (e, "connect", "")));
    Unix.clear_nonblock fd
  with
  | () -> Some fd
  | exception _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

(* One request of class [c]; [k] is the request's index in its client's
   slice, used to pick deterministically among the malformed bodies.
   Returns (awaited response, result, latency_s). *)
let fire ~host ~port ~timeout_s ~k c =
  let t0 = Unix.gettimeofday () in
  match connect ~host ~port ~timeout_s with
  | None -> (true, No_response, Unix.gettimeofday () -. t0)
  | Some fd ->
      let finish awaited resp =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (awaited, resp, Unix.gettimeofday () -. t0)
      in
      let roundtrip payload =
        if not (send_all fd payload) then finish true No_response
        else
          match read_all fd ~timeout_s with
          | `Eof raw -> finish true (parse_status raw)
          | `Timeout raw ->
              (* A timeout with a parseable status is still an answered
                 connection (we may have raced the close); with nothing,
                 it is a hang — the worst invariant breach. *)
              finish true (parse_status raw)
      in
      (match c with
      | Predict_plain -> roundtrip (post "/v1/predict" (predict_body ~validate:false))
      | Predict_validate ->
          roundtrip (post "/v1/predict" (predict_body ~validate:true))
      | Sweep_small -> roundtrip (post "/v1/sweep" sweep_body)
      | Healthz -> roundtrip (get "/healthz")
      | Malformed ->
          roundtrip
            (post "/v1/predict"
               malformed_bodies.(k mod Array.length malformed_bodies))
      | Oversized ->
          (* Advertise 64 MiB; send only a sliver. The daemon must refuse
             on the advertisement alone. *)
          let payload =
            "POST /v1/predict HTTP/1.1\r\nHost: slam\r\n\
             Content-Length: 67108864\r\n\r\n{\"app\":"
          in
          roundtrip payload
      | Slow_loris ->
          (* Half a header, then silence: the daemon owes us a 408 once
             its header budget expires. *)
          let partial = "POST /v1/predict HTTP/1.1\r\nHost: sl" in
          if not (send_all fd partial) then finish true No_response
          else (
            match read_all fd ~timeout_s with
            | `Eof raw -> finish true (parse_status raw)
            | `Timeout raw -> finish true (parse_status raw))
      | Early_close ->
          ignore (send_all fd "POST /v1/pre");
          finish false No_response
      | Expired_sweep ->
          roundtrip
            (post "/v1/sweep" ~headers:[ ("X-Deadline-Ms", "0") ] big_sweep_body))

(* --- /metrics parsing ------------------------------------------------ *)

(* Plain "name value" exposition lines only (no labels, no comments) —
   exactly what the daemon's scrape emits for counters and gauges. *)
(* [raw] is a whole HTTP response: the exposition starts after the first
   blank line — drop the header block so "Content-Length: 134" is not
   mistaken for a sample. *)
let response_body raw =
  let n = String.length raw in
  let rec find i =
    if i + 3 >= n then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub raw i (n - i)
  | None -> raw

let parse_metrics raw =
  String.split_on_char '\n' (response_body raw)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' || String.contains line '{' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i -> (
               let name = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt (String.trim v) with
               | Some f -> Some (name, f)
               | None -> None))

let metric m name = Option.value ~default:nan (List.assoc_opt name m)

let fetch ~host ~port ~timeout_s path =
  match connect ~host ~port ~timeout_s with
  | None -> None
  | Some fd ->
      let r =
        if send_all fd (get path) then
          match read_all fd ~timeout_s with
          | `Eof raw | `Timeout raw -> Some raw
        else None
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r

(* --- configuration and report ---------------------------------------- *)

type config = {
  host : string;
  port : int;
  requests : int;
  clients : int;
  seed : int;
  client_timeout_s : float;
  latency_budget_ms : float;
  expect_breaker : bool;
  fail_on_invariant : bool;
  report_path : string option;
  quiet : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    requests = 1000;
    clients = 4;
    seed = 42;
    client_timeout_s = 10.0;
    latency_budget_ms = 2000.0;
    expect_breaker = false;
    fail_on_invariant = false;
    report_path = None;
    quiet = false;
  }

type invariant = { name : string; pass : bool; detail : string }

type report = {
  seed : int;
  requests : int;
  clients : int;
  duration_s : float;
  class_counts : (string * int) list;
  status_counts : (int * int) list;
  no_response : int;
  malformed_responses : int;
  fast_p50_ms : float;
  fast_p95_ms : float;
  fast_p99_ms : float;
  server_metrics : (string * float) list;
  invariants : invariant list;
}

let passed r = List.for_all (fun i -> i.pass) r.invariants

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* --- the run ---------------------------------------------------------- *)

type shot = { cls : cls; awaited : bool; resp : response; latency_s : float }

let execute cfg =
  match fetch ~host:cfg.host ~port:cfg.port ~timeout_s:cfg.client_timeout_s
          "/healthz"
  with
  | None -> Error "daemon unreachable: initial /healthz connect failed"
  | Some _ ->
      let t0 = Unix.gettimeofday () in
      let schedule = plan ~seed:cfg.seed ~requests:cfg.requests ~clients:cfg.clients in
      let domains =
        Array.map
          (fun slice ->
            Domain.spawn (fun () ->
                Array.mapi
                  (fun k cls ->
                    let awaited, resp, latency_s =
                      fire ~host:cfg.host ~port:cfg.port
                        ~timeout_s:cfg.client_timeout_s ~k cls
                    in
                    { cls; awaited; resp; latency_s })
                  slice))
          schedule
      in
      let shots =
        Array.to_list domains
        |> List.concat_map (fun d -> Array.to_list (Domain.join d))
      in
      let duration_s = Unix.gettimeofday () -. t0 in
      (* With a breaker expectation, drive recovery: the storm may end
         inside the open-state cooldown, so keep offering validation
         traffic until the half-open probe has run and closed the
         breaker (or a generous budget expires — that is the failing
         case the invariant reports). *)
      if cfg.expect_breaker then begin
        let give_up = Unix.gettimeofday () +. 15.0 in
        let closed () =
          match
            fetch ~host:cfg.host ~port:cfg.port
              ~timeout_s:cfg.client_timeout_s "/metrics"
          with
          | None -> false
          | Some raw -> metric (parse_metrics raw) "serve_breaker_closes" >= 1.0
        in
        let rec drive () =
          if Unix.gettimeofday () < give_up && not (closed ()) then begin
            ignore
              (fire ~host:cfg.host ~port:cfg.port
                 ~timeout_s:cfg.client_timeout_s ~k:0 Predict_validate);
            Unix.sleepf 0.2;
            drive ()
          end
        in
        drive ()
      end;
      (* The daemon's counters settle once our last connection is torn
         down; re-scrape on the shared backoff ladder until they do. *)
      let last_scrape = ref [] in
      let settled () =
        let m =
          match
            fetch ~host:cfg.host ~port:cfg.port
              ~timeout_s:cfg.client_timeout_s "/metrics"
          with
          | None -> []
          | Some raw -> parse_metrics raw
        in
        last_scrape := m;
        Float.is_finite (metric m "serve_requests_total")
        && metric m "serve_queue_depth" = 0.0
        && metric m "serve_inflight" = 1.0 (* the scrape itself *)
      in
      ignore
        (Shmpi.Backoff.wait_until
           ~policy:(Shmpi.Backoff.v ~min_s:0.01 ~max_s:0.2)
           ~deadline:(Unix.gettimeofday () +. 2.0)
           settled);
      let m = !last_scrape in
      let alive =
        match
          fetch ~host:cfg.host ~port:cfg.port ~timeout_s:cfg.client_timeout_s
            "/healthz"
        with
        | Some raw -> (
            match parse_status raw with Status (200, _) -> true | _ -> false)
        | None -> false
      in
      (* fold the shots *)
      let class_counts =
        List.map
          (fun c ->
            ( class_name c,
              List.length (List.filter (fun s -> s.cls = c) shots) ))
          all_classes
      in
      let status_counts =
        List.fold_left
          (fun acc s ->
            match s.resp with
            | Status (code, _) ->
                let n = Option.value ~default:0 (List.assoc_opt code acc) in
                (code, n + 1) :: List.remove_assoc code acc
            | _ -> acc)
          [] shots
        |> List.sort compare
      in
      let no_response =
        List.length
          (List.filter (fun s -> s.awaited && s.resp = No_response) shots)
      in
      let malformed_responses =
        List.length (List.filter (fun s -> s.resp = Garbage) shots)
      in
      let fast =
        List.filter
          (fun s ->
            (s.cls = Predict_plain || s.cls = Healthz)
            && match s.resp with Status (200, _) -> true | _ -> false)
          shots
      in
      let fast_lat =
        let a =
          Array.of_list (List.map (fun s -> s.latency_s *. 1000.0) fast)
        in
        Array.sort compare a;
        a
      in
      let fast_p50_ms = quantile fast_lat 0.50 in
      let fast_p95_ms = quantile fast_lat 0.95 in
      let fast_p99_ms = quantile fast_lat 0.99 in
      (* targeted status contracts; shedding (429) and drain (503) are
         always legitimate alternatives *)
      let contract cls ok_codes =
        List.for_all
          (fun s ->
            s.cls <> cls
            ||
            match s.resp with
            | Status (code, _) ->
                List.mem code ok_codes || code = 429 || code = 503
            | No_response -> not s.awaited
            | Garbage -> false)
          shots
      in
      let sum_outcomes =
        metric m "serve_ok_total" +. metric m "serve_degraded_total"
        +. metric m "serve_shed_total" +. metric m "serve_timeout_total"
        +. metric m "serve_client_error_total"
        +. metric m "serve_server_error_total"
        +. metric m "serve_aborted_total"
      in
      let accounted =
        sum_outcomes +. metric m "serve_inflight"
        +. metric m "serve_queue_depth"
      in
      let total = metric m "serve_requests_total" in
      let inv name pass detail = { name; pass; detail } in
      let invariants =
        [
          inv "daemon-alive" alive
            "final /healthz answers 200 after the storm";
          inv "all-connections-answered" (no_response = 0)
            (Printf.sprintf "%d awaited connections got no response"
               no_response);
          inv "responses-well-formed" (malformed_responses = 0)
            (Printf.sprintf "%d responses had no parseable status line"
               malformed_responses);
          inv "accounting-reconciles"
            (Float.is_finite total && Float.abs (total -. accounted) <= 0.5)
            (Printf.sprintf
               "requests_total %.0f vs outcomes+inflight+queued %.0f" total
               accounted);
          inv "malformed-rejected" (contract Malformed [ 400 ])
            "malformed bodies answered with 400";
          inv "oversized-rejected" (contract Oversized [ 413 ])
            "oversized advertisements answered with 413";
          inv "slow-loris-timed-out" (contract Slow_loris [ 408 ])
            "held-open headers answered with 408";
          inv "expired-deadline-honored" (contract Expired_sweep [ 504 ])
            "zero-deadline sweeps answered with 504";
          inv "fast-path-p99-bounded"
            (fast = [] || fast_p99_ms <= cfg.latency_budget_ms)
            (Printf.sprintf "p99 %.1f ms against budget %.1f ms" fast_p99_ms
               cfg.latency_budget_ms);
        ]
        @
        if cfg.expect_breaker then
          [
            inv "breaker-opened"
              (metric m "serve_breaker_opens" >= 1.0)
              (Printf.sprintf "opens=%.0f" (metric m "serve_breaker_opens"));
            inv "breaker-recovered"
              (metric m "serve_breaker_closes" >= 1.0)
              (Printf.sprintf "closes=%.0f" (metric m "serve_breaker_closes"));
          ]
        else []
      in
      Ok
        {
          seed = cfg.seed;
          requests = cfg.requests;
          clients = cfg.clients;
          duration_s;
          class_counts;
          status_counts;
          no_response;
          malformed_responses;
          fast_p50_ms;
          fast_p95_ms;
          fast_p99_ms;
          server_metrics = m;
          invariants;
        }

(* --- report serialization -------------------------------------------- *)

let report_to_json r =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    {|{"schema":"wavefront-slam/v1","seed":%d,"requests":%d,"clients":%d,"duration_s":%.3f|}
    r.seed r.requests r.clients r.duration_s;
  Buffer.add_string b ",\"classes\":{";
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char b ',';
      Obs.Json.add_string b name;
      Buffer.add_char b ':';
      Obs.Json.add_int b n)
    r.class_counts;
  Buffer.add_string b "},\"statuses\":{";
  List.iteri
    (fun i (code, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%d\":%d" code n)
    r.status_counts;
  Printf.bprintf b
    {|},"no_response":%d,"malformed_responses":%d,"fast_p50_ms":%.3f,"fast_p95_ms":%.3f,"fast_p99_ms":%.3f|}
    r.no_response r.malformed_responses r.fast_p50_ms r.fast_p95_ms
    r.fast_p99_ms;
  Buffer.add_string b ",\"server_metrics\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Obs.Json.add_string b name;
      Buffer.add_char b ':';
      if Float.is_finite v then Obs.Json.add_float b v
      else Buffer.add_string b "null")
    r.server_metrics;
  Buffer.add_string b "},\"invariants\":[";
  List.iteri
    (fun i inv ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b {|{"name":|};
      Obs.Json.add_string b inv.name;
      Buffer.add_string b (if inv.pass then {|,"pass":true|} else {|,"pass":false|});
      Buffer.add_string b {|,"detail":|};
      Obs.Json.add_string b inv.detail;
      Buffer.add_char b '}')
    r.invariants;
  Printf.bprintf b {|],"passed":%b}|} (passed r);
  Buffer.contents b

let run cfg =
  match execute cfg with
  | Error msg ->
      Printf.eprintf "slam: %s\n%!" msg;
      2
  | Ok r ->
      (match cfg.report_path with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc (report_to_json r);
          output_char oc '\n';
          close_out oc);
      if not cfg.quiet then begin
        Printf.printf
          "slam: %d requests over %d clients in %.1f s (fast p50/p95/p99 = \
           %.1f/%.1f/%.1f ms)\n"
          r.requests r.clients r.duration_s r.fast_p50_ms r.fast_p95_ms
          r.fast_p99_ms;
        List.iter
          (fun i ->
            Printf.printf "  %-28s %s  %s\n" i.name
              (if i.pass then "PASS" else "FAIL")
              (if i.pass then "" else i.detail))
          r.invariants;
        Printf.printf "slam: %s\n%!"
          (if passed r then "all invariants held" else "INVARIANT FAILED")
      end;
      if (not (passed r)) && cfg.fail_on_invariant then 1 else 0
