let max_header_bytes = 16 * 1024

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

(* Accumulate until the header terminator CRLFCRLF (or bare LFLF) shows
   up, never keeping more than [max_header_bytes]. Returns the raw
   header block and any body bytes that arrived with it. *)
let read_header_block fd ~deadline =
  let buf = Bytes.create max_header_bytes in
  let filled = ref 0 in
  let find_terminator () =
    (* Search for \r\n\r\n or \n\n in [0, filled). Returns end-of-header
       offset (index one past the terminator) or -1. *)
    let n = !filled in
    let rec go i =
      if i >= n then -1
      else if
        i + 3 < n
        && Bytes.get buf i = '\r'
        && Bytes.get buf (i + 1) = '\n'
        && Bytes.get buf (i + 2) = '\r'
        && Bytes.get buf (i + 3) = '\n'
      then i + 4
      else if i + 1 < n && Bytes.get buf i = '\n' && Bytes.get buf (i + 1) = '\n'
      then i + 2
      else go (i + 1)
    in
    go 0
  in
  let rec loop () =
    match find_terminator () with
    | stop ->
        if stop >= 0 then
          Ok
            ( Bytes.sub_string buf 0 stop,
              Bytes.sub_string buf stop (!filled - stop) )
        else if !filled >= max_header_bytes then Error Too_large
        else
          (match
             read_some fd buf !filled (max_header_bytes - !filled) ~deadline
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

let read_request ?(max_body = 1024 * 1024) ~deadline fd =
  match read_header_block fd ~deadline with
  | Error _ as e -> e
  | Ok (block, prefix) -> (
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
                      else if String.length prefix > len then
                        Error (Bad_request "body longer than Content-Length")
                      else begin
                        let body = Bytes.create len in
                        Bytes.blit_string prefix 0 body 0 (String.length prefix);
                        let filled = ref (String.length prefix) in
                        let rec fill () =
                          if !filled >= len then
                            Ok
                              {
                                meth;
                                path;
                                version;
                                headers;
                                body = Bytes.to_string body;
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

let write_all fd s =
  let total = String.length s in
  let rec go pos =
    if pos >= total then true
    else
      match Unix.write_substring fd s pos (total - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* The head is built apart and the body written straight from the
   caller's string: a sweep response runs to ~0.7 MB, and
   gluing it to its head would copy it again per request. The two
   writes rely on the server's TCP_NODELAY so the body's last segment is
   not held back behind the head's ACK. *)
let write_response ?(headers = []) ?(body = "") fd status =
  let head = Buffer.create 256 in
  Printf.bprintf head "HTTP/1.1 %d %s\r\n" status (status_text status);
  List.iter (fun (k, v) -> Printf.bprintf head "%s: %s\r\n" k v) headers;
  Printf.bprintf head "Content-Length: %d\r\nConnection: close\r\n\r\n"
    (String.length body);
  write_all fd (Buffer.contents head) && write_all fd body

let discard_close fd =
  (* Closing with unread bytes in the receive buffer makes the kernel
     answer with RST, which can destroy the response we just wrote
     before the client reads it (shed 429s, refused 413s). Drain
     whatever has already arrived — without waiting for more — so the
     close degrades to an ordinary FIN. *)
  (try
     Unix.set_nonblock fd;
     let junk = Bytes.create 4096 in
     let rec drain budget =
       if budget > 0 then
         match Unix.read fd junk 0 (Bytes.length junk) with
         | 0 -> ()
         | n -> drain (budget - n)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
         | exception Unix.Unix_error _ -> ()
     in
     drain (256 * 1024)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
