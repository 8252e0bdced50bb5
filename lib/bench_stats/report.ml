(* The machine-readable benchmark document: a versioned schema wrapping
   the runner's summaries, so CI can diff two runs mechanically and a
   schema bump is an explicit, detectable event rather than silent field
   drift. *)

module Json = Obs.Json

let schema = "wavefront-bench/v1"

type t = {
  label : string;  (** e.g. a git ref or "local" *)
  created_at : float;  (** unix epoch seconds *)
  meta : (string * string) list;  (** free-form provenance *)
  results : Runner.summary list;
}

let v ?(label = "local") ?(meta = []) ?created_at results =
  let created_at =
    match created_at with
    | Some t -> t
    | None -> Obs.Clock.realtime () /. 1e6
  in
  { label; created_at; meta; results }

let summary_to_json (s : Runner.summary) =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("n", Json.Num (float_of_int s.n));
      ("batch", Json.Num (float_of_int s.batch));
      ("median_us", Json.Num s.median);
      ("mad_us", Json.Num s.mad);
      ("mean_us", Json.Num s.mean);
      ("ci_low_us", Json.Num s.ci_low);
      ("ci_high_us", Json.Num s.ci_high);
    ]

let summary_of_json j =
  let f name = Json.get_num name (Json.member name j) in
  {
    Runner.name = Json.get_str "name" (Json.member "name" j);
    n = int_of_float (f "n");
    batch = int_of_float (f "batch");
    median = f "median_us";
    mad = f "mad_us";
    mean = f "mean_us";
    ci_low = f "ci_low_us";
    ci_high = f "ci_high_us";
  }

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("label", Json.Str t.label);
         ("created_at", Json.Num t.created_at);
         ( "meta",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.meta) );
         ("results", Json.List (List.map summary_to_json t.results));
       ])

let of_json s =
  let j = Json.of_string s in
  let got = Json.get_str "schema" (Json.member "schema" j) in
  if got <> schema then
    raise
      (Json.Parse_error
         (Printf.sprintf "schema mismatch: expected %s, got %s" schema got));
  {
    label = Json.get_str "label" (Json.member "label" j);
    created_at = Json.get_num "created_at" (Json.member "created_at" j);
    meta =
      (match Json.member "meta" j with
      | Some (Json.Obj kvs) ->
          List.map
            (fun (k, v) -> (k, Json.get_str k (Some v)))
            kvs
      | _ -> []);
    results =
      List.map summary_of_json (Json.get_list "results" (Json.member "results" j));
  }

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (really_input_string ic (in_channel_length ic)))
