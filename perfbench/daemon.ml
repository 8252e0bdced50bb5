(* The daemon under test, run as a child process, and a minimal client
   for its one-request-per-connection HTTP/1.1. *)

type t = { pid : int; port : int; out : in_channel }

(* --- client ----------------------------------------------------------- *)

type reply = { status : int; body : string }  (* status 0: no response *)

let no_response = { status = 0; body = "" }

(* The first index at or after [from] where [sub] occurs in [s]. *)
let find ?(from = 0) s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

let parse_reply raw =
  match find raw "\r\n\r\n" with
  | Some hdr when String.length raw >= 12 && String.sub raw 0 5 = "HTTP/" -> (
      match int_of_string_opt (String.sub raw 9 3) with
      | Some status ->
          let off = hdr + 4 in
          { status; body = String.sub raw off (String.length raw - off) }
      | None -> no_response)
  | _ -> no_response

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One request on a fresh connection, read to EOF. Any socket error or
   a reply that takes over [timeout_s] is [no_response]. *)
let request ?(timeout_s = 60.0) ?(body = "") ~port meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        write_all fd
          (Printf.sprintf
             "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
             meth path (String.length body) body)
          0;
        let buf = Buffer.create 1024 and chunk = Bytes.create 65536 in
        let rec read () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read ()
        in
        read ();
        parse_reply (Buffer.contents buf)
      with Unix.Unix_error _ -> no_response)

(* --- lifecycle --------------------------------------------------------- *)

(* Start [exe serve] on an ephemeral port (read back from its first
   output line) and wait until [/readyz] answers 200. *)
let spawn ~exe ~workers =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--workers"; string_of_int workers |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let port =
    match input_line out with
    | line -> (
        try Scanf.sscanf line "serving on %_[^:]:%d" Fun.id
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0)
    | exception End_of_file -> 0
  in
  let t = { pid; port; out } in
  let give_up = Unix.gettimeofday () +. 30.0 in
  let rec ready () =
    if port > 0 && (request ~port "GET" "/readyz").status = 200 then true
    else if Unix.gettimeofday () > give_up then false
    else begin
      Unix.sleepf 0.001;
      ready ()
    end
  in
  if ready () then Ok t
  else begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr out;
    Error (Printf.sprintf "daemon %s did not become ready" exe)
  end

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> scan ())
        | exception End_of_file -> nan
      in
      scan ())

(* Graceful drain (SIGTERM), then reap. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  close_in_noerr t.out

(* The daemon's [serve_latency_us] histogram: (sum, count). *)
let latency_sum_count t =
  let r = request ~port:t.port "GET" "/metrics" in
  let value name =
    List.find_map
      (fun line ->
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = name ->
            float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> None)
      (String.split_on_char '\n' r.body)
  in
  match (value "serve_latency_us_sum", value "serve_latency_us_count") with
  | Some s, Some c -> Some (s, c)
  | _ -> None
