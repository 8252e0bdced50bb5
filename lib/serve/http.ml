let max_header_bytes = 16 * 1024

type scratch = Bytes.t

let scratch () = Bytes.create (64 * 1024)

type request = {
  meth : string;
  path : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type read_error =
  | Bad_request of string
  | Too_large
  | Timeout
  | Closed

let header r name =
  List.assoc_opt (String.lowercase_ascii name) r.headers

(* Wait until [fd] is readable or the deadline passes. *)
let wait_readable fd ~deadline =
  let remaining = Deadline.remaining_s ~now:(Unix.gettimeofday ()) deadline in
  if remaining <= 0.0 then `Timeout
  else
    (* select's timeout must be finite; 1h chunks are fine for an
       effectively unbounded deadline. *)
    let tmo = Float.min remaining 3600.0 in
    match Unix.select [ fd ] [] [] tmo with
    | [], _, _ -> if remaining <= tmo then `Timeout else `Again
    | _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again

(* Read up to [len] more bytes into [buf] at [pos], deadline-gated. *)
let rec read_some fd buf pos len ~deadline =
  match wait_readable fd ~deadline with
  | `Timeout -> `Timeout
  | `Again -> read_some fd buf pos len ~deadline
  | `Ready -> (
      match Unix.read fd buf pos len with
      | 0 -> `Closed
      | n -> `Read n
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          read_some fd buf pos len ~deadline
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          `Closed)

(* Accumulate in [scratch] until the header terminator CRLFCRLF (or
   bare LFLF) shows up, never taking more than [max_header_bytes].
   Returns the header block, its end and how far [scratch] is filled:
   the bytes past the block are body bytes that arrived with it. *)
let read_header_block scratch fd ~deadline =
  let filled = ref 0 in
  let find_terminator () =
    (* Search for \r\n\r\n or \n\n in [0, filled). Returns end-of-header
       offset (index one past the terminator) or -1. *)
    let n = !filled in
    let rec go i =
      if i >= n then -1
      else if
        i + 3 < n
        && Bytes.get scratch i = '\r'
        && Bytes.get scratch (i + 1) = '\n'
        && Bytes.get scratch (i + 2) = '\r'
        && Bytes.get scratch (i + 3) = '\n'
      then i + 4
      else if
        i + 1 < n && Bytes.get scratch i = '\n' && Bytes.get scratch (i + 1) = '\n'
      then i + 2
      else go (i + 1)
    in
    go 0
  in
  let rec loop () =
    match find_terminator () with
    | stop ->
        if stop >= 0 then Ok (Bytes.sub_string scratch 0 stop, stop, !filled)
        else if !filled >= max_header_bytes then Error Too_large
        else
          (match
             read_some fd scratch !filled (max_header_bytes - !filled)
               ~deadline
           with
          | `Timeout -> Error Timeout
          | `Closed -> Error Closed
          | `Read n ->
              filled := !filled + n;
              loop ())
  in
  loop ()

let parse_headers lines =
  let parse acc line =
    match acc with
    | Error _ as e -> e
    | Ok hs -> (
        match String.index_opt line ':' with
        | None -> Error (Bad_request "header line without ':'")
        | Some i ->
            let name = String.lowercase_ascii (String.sub line 0 i) in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            if name = "" then Error (Bad_request "empty header name")
            else Ok ((name, value) :: hs))
  in
  Result.map List.rev (List.fold_left parse (Ok []) lines)

let split_lines block =
  (* Split on \n, dropping a trailing \r from each line. *)
  String.split_on_char '\n' block
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
  |> List.filter (fun l -> l <> "")

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ] when meth <> "" && path <> "" ->
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        Error (Bad_request ("unsupported version " ^ version))
      else Ok (String.uppercase_ascii meth, path, version)
  | _ -> Error (Bad_request "malformed request line")

let read_request ?(max_body = 1024 * 1024) ~scratch ~deadline fd =
  match read_header_block scratch fd ~deadline with
  | Error _ as e -> e
  | Ok (block, stop, filled) -> (
      match split_lines block with
      | [] -> Error (Bad_request "empty request")
      | req_line :: header_lines -> (
          match parse_request_line req_line with
          | Error _ as e -> e
          | Ok (meth, path, version) -> (
              match parse_headers header_lines with
              | Error _ as e -> e
              | Ok headers -> (
                  let content_length =
                    match List.assoc_opt "content-length" headers with
                    | None -> Ok 0
                    | Some v -> (
                        match int_of_string_opt (String.trim v) with
                        | Some n when n >= 0 -> Ok n
                        | _ -> Error (Bad_request "bad Content-Length"))
                  in
                  match content_length with
                  | Error _ as e -> e
                  | Ok len ->
                      if
                        (meth = "POST" || meth = "PUT")
                        && not (List.mem_assoc "content-length" headers)
                      then Error (Bad_request "missing Content-Length")
                      else if len > max_body then
                        (* Refuse before reading: the advertised size alone
                           condemns the request. *)
                        Error Too_large
                      else if filled - stop > len then
                        Error (Bad_request "body longer than Content-Length")
                      else begin
                        let body = Bytes.create len in
                        Bytes.blit scratch stop body 0 (filled - stop);
                        let filled = ref (filled - stop) in
                        let rec fill () =
                          if !filled >= len then
                            Ok
                              {
                                meth;
                                path;
                                version;
                                headers;
                                (* [body] is never written again *)
                                body = Bytes.unsafe_to_string body;
                              }
                          else
                            match
                              read_some fd body !filled (len - !filled)
                                ~deadline
                            with
                            | `Timeout -> Error Timeout
                            | `Closed -> Error Closed
                            | `Read n ->
                                filled := !filled + n;
                                fill ()
                        in
                        fill ()
                      end))))

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_all fd buf len =
  let rec go pos =
    if pos >= len then true
    else
      match Unix.write fd buf pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* The head and the body pass through [scratch] and leave it a
   scratch-full per write, so a small response is one write and a large
   body is never copied out of its buffer whole: a sweep response runs
   to ~0.6 MB, and [Buffer.contents] would make a fresh major-heap copy
   of it per request. *)
let write_response ~scratch ?(headers = []) fd status body =
  let cap = Bytes.length scratch in
  let fill = ref 0 and ok = ref true in
  let flush () =
    if !ok then ok := write_all fd scratch !fill;
    fill := 0
  in
  let put blit src len =
    let off = ref 0 in
    while !ok && !off < len do
      if !fill = cap then flush ();
      let n = min (cap - !fill) (len - !off) in
      blit src !off scratch !fill n;
      fill := !fill + n;
      off := !off + n
    done
  in
  let put_string s = put Bytes.blit_string s (String.length s) in
  put_string "HTTP/1.1 ";
  put_string (string_of_int status);
  put_string " ";
  put_string (status_text status);
  put_string "\r\n";
  List.iter
    (fun (k, v) ->
      put_string k;
      put_string ": ";
      put_string v;
      put_string "\r\n")
    headers;
  put_string "Content-Length: ";
  put_string (string_of_int (Buffer.length body));
  put_string "\r\nConnection: close\r\n\r\n";
  put Buffer.blit body (Buffer.length body);
  flush ();
  !ok

let discard_close ~scratch fd =
  (* Closing with unread bytes in the receive buffer makes the kernel
     answer with RST, which can destroy the response we just wrote
     before the client reads it (shed 429s, refused 413s). Drain
     whatever has already arrived — without waiting for more — so the
     close degrades to an ordinary FIN. *)
  (try
     Unix.set_nonblock fd;
     let rec drain budget =
       if budget > 0 then
         match Unix.read fd scratch 0 (Bytes.length scratch) with
         | 0 -> ()
         | n -> drain (budget - n)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
         | exception Unix.Unix_error _ -> ()
     in
     drain (256 * 1024)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
