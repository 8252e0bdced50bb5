(** A deliberately small HTTP/1.1 reader/writer over raw [Unix] file
    descriptors — just enough protocol for the serve daemon, with the
    hostile-input defenses built into the reader rather than bolted on:

    - every [read] is gated by [Unix.select] against the request's
      header deadline, so a slow-loris client ties up a worker for at
      most that budget (408);
    - the header block (request line + headers) is capped at 16 KiB
      (400) and bodies at the caller's [max_body] ([`Too_large] → 413)
      {e before} the body is read, so an oversized [Content-Length]
      never costs its advertised bytes;
    - connections are single-request ([Connection: close]): no pipelining
      state to poison.

    Failures are values, not exceptions — the server turns each into one
    well-formed status line, which is the invariant the slam client
    checks on every connection. *)

type request = {
  meth : string;  (** uppercase, e.g. ["GET"] *)
  path : string;  (** request target, query string included *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type read_error =
  | Bad_request of string  (** malformed request line, header or length *)
  | Too_large  (** headers over 16 KiB or body over [max_body] *)
  | Timeout  (** header/body not complete by the deadline (slow-loris) *)
  | Closed  (** peer closed or reset before a full request arrived *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val read_request :
  ?max_body:int ->
  deadline:float ->
  Unix.file_descr ->
  (request, read_error) result
(** Read one request. [max_body] defaults to 1 MiB. [deadline] is the
    absolute instant ({!Deadline.t}) by which the full request must have
    arrived. A [POST]/[PUT] without [Content-Length] is a
    [Bad_request] (chunked encoding is not supported). *)

val write_response :
  ?headers:(string * string) list ->
  ?body:string ->
  Unix.file_descr ->
  int ->
  bool
(** Write a complete response ([Connection: close],
    [Content-Length] computed) as two writes, the head and then [body]
    straight from the caller's string, never copied; the server sets
    [TCP_NODELAY] on accepted sockets so the second write is not delayed.
    Returns [false] when the peer is gone ([EPIPE]/reset) — the caller
    records the outcome either way and never raises. *)

val discard_close : Unix.file_descr -> unit
(** Drain any request bytes that already arrived (never waiting for
    more), then close. Closing with unread input pending would make the
    kernel send RST instead of FIN, destroying an in-flight response —
    exactly the shed-429 and refused-413 paths where the server answers
    without reading the request. Never raises. *)
