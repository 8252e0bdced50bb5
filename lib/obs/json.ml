(* A minimal JSON value, printer and recursive-descent parser — just
   enough to round-trip the benchmark report schema without pulling a
   JSON dependency into the repo. The parser accepts standard JSON
   (objects, arrays, strings with escapes, numbers, true/false/null);
   the printer always emits numbers in a float format OCaml re-reads
   exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let hex_digits = "0123456789abcdef"

let add_string b s =
  Buffer.add_char b '"';
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | '\000' .. '\031' as c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
    | c -> Buffer.add_char b c
  done;
  Buffer.add_char b '"'

(* The C printf conversion that [Printf]'s [%.17g] and [%.0f] end in,
   called without interpreting a format per call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr x = format_float "%.17g" x
let add_float b x = Buffer.add_string b (float_repr x)

(* The digits of [-m] for [m <= 0]: working on the non-positive side
   lets [min_int] through with no special case. A top-level function, not
   a closure over [b], so that writing an int allocates nothing. *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let rec print b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string b (format_float "%.0f" v)
      else add_float b v
  | Str s -> add_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          print b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          print b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  print b v;
  Buffer.contents b

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let parse_lit st lit v =
  if
    st.pos + String.length lit <= String.length st.src
    && String.sub st.src st.pos (String.length lit) = lit
  then begin
    st.pos <- st.pos + String.length lit;
    v
  end
  else error st ("expected " ^ lit)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | Some '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1; go ()
        | Some '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1; go ()
        | Some '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1; go ()
        | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1; go ()
        | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1; go ()
        | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1; go ()
        | Some 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1; go ()
        | Some 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1; go ()
        | Some 'u' ->
            if st.pos + 5 > String.length st.src then
              error st "truncated \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error st "bad \\u escape"
            in
            (* Only BMP code points below 0x80 matter for our reports;
               others are preserved as UTF-8. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            st.pos <- st.pos + 5;
            go ()
        | _ -> error st "bad escape")
    | Some c ->
        Buffer.add_char b c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected number";
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some v -> v
  | None -> error st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_lit st "true" (Bool true)
  | Some 'f' -> parse_lit st "false" (Bool false)
  | Some 'n' -> parse_lit st "null" Null
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing input";
  v

(* Typed accessors; raise [Parse_error] so callers report a schema
   violation rather than a pattern-match failure. *)
let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get_str name = function
  | Some (Str s) -> s
  | _ -> raise (Parse_error ("missing or non-string field " ^ name))

let get_num name = function
  | Some (Num v) -> v
  | _ -> raise (Parse_error ("missing or non-number field " ^ name))

let get_list name = function
  | Some (List l) -> l
  | _ -> raise (Parse_error ("missing or non-array field " ^ name))
