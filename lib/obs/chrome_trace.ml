(* Chrome trace_event JSON export: complete ("X") events, one process per
   span source (simulated machine, real runtime), one thread per rank.
   The output loads directly in chrome://tracing and in Perfetto.

   Timestamps: trace_event "ts" is in microseconds, the unit every span in
   this library already uses. Each process is normalized to its own
   earliest span, so a simulated timeline (starting at 0) and a real one
   (stamped with wall-clock epochs) align at t=0 for side-by-side
   reading. *)

type process = { pid : int; name : string; spans : Span.t list }

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

(* JSON has no NaN/Infinity; clamp pathological values to 0. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.3f" f)

let add_arg b (key, v) =
  add_string b key;
  Buffer.add_char b ':';
  match (v : Span.arg) with
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Str s -> add_string b s

let add_meta b ~pid ?tid ~name ~value () =
  Buffer.add_string b "{\"ph\":\"M\",\"pid\":";
  Buffer.add_string b (string_of_int pid);
  (match tid with
  | Some t ->
      Buffer.add_string b ",\"tid\":";
      Buffer.add_string b (string_of_int t)
  | None -> ());
  Buffer.add_string b ",\"name\":";
  add_string b name;
  Buffer.add_string b ",\"args\":{\"name\":";
  add_string b value;
  Buffer.add_string b "}}"

(* Injected-delay and recovery-protocol spans ("perturb.*" / "recover.*")
   get a distinct leading category so Perfetto's category filter isolates
   them in one click; the producer's own category (compute/comm/...) is
   kept behind a comma, the trace_event multi-category convention. *)
let cat_of (s : Span.t) =
  let prefixed p = String.length s.name > String.length p
    && String.sub s.name 0 (String.length p) = p
  in
  let tagged tag =
    if s.cat = "" || s.cat = tag then tag else tag ^ "," ^ s.cat
  in
  if prefixed "perturb." then tagged "perturb"
  else if prefixed "recover." then tagged "recover"
  else s.cat

let add_span b ~pid ~epoch (s : Span.t) =
  Buffer.add_string b "{\"ph\":\"X\",\"pid\":";
  Buffer.add_string b (string_of_int pid);
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int s.rank);
  Buffer.add_string b ",\"ts\":";
  add_float b (s.t_start -. epoch);
  Buffer.add_string b ",\"dur\":";
  add_float b s.dur;
  Buffer.add_string b ",\"name\":";
  add_string b s.name;
  let cat = cat_of s in
  if cat <> "" then begin
    Buffer.add_string b ",\"cat\":";
    add_string b cat
  end;
  if s.args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char b ',';
        add_arg b a)
      s.args;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}'

let ranks_of spans =
  List.sort_uniq compare (List.map (fun (s : Span.t) -> s.rank) spans)

let to_json ?(normalize = true) processes =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit add =
    if !first then first := false else Buffer.add_char b ',';
    add ()
  in
  List.iter
    (fun p ->
      emit (fun () ->
          add_meta b ~pid:p.pid ~name:"process_name" ~value:p.name ());
      List.iter
        (fun rank ->
          emit (fun () ->
              add_meta b ~pid:p.pid ~tid:rank ~name:"thread_name"
                ~value:(Printf.sprintf "rank %d" rank) ()))
        (ranks_of p.spans);
      let epoch =
        if normalize then
          List.fold_left
            (fun acc (s : Span.t) -> Float.min acc s.t_start)
            infinity p.spans
        else 0.0
      in
      let epoch = if Float.is_finite epoch then epoch else 0.0 in
      List.iter
        (fun s -> emit (fun () -> add_span b ~pid:p.pid ~epoch s))
        p.spans)
    processes;
  Buffer.add_string b "]}";
  Buffer.contents b
