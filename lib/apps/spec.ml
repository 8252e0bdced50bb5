(* Textual application specifications: the plug-and-play workflow without
   recompiling. A spec is a list of KEY = VALUE lines ('#' starts a
   comment); unknown and repeated keys are errors, so typos fail loudly.

     # hydra.spec
     name = hydra
     nx = 480    ny and nz likewise
     wg = 1.4                  # us per cell, measured
     wg_pre = 0.15             # optional, default 0
     htile = 2                 # optional, default 1
     nsweeps = 4               # optional, default 2
     nfull = 2                 # optional, default min 2 nsweeps
     ndiag = 1                 # optional, default 0
     schedule = sweep3d        # optional: sweep3d | lu | chimaera; a named
                               # preset instead of nsweeps/nfull/ndiag
     bytes_per_cell = 96       # boundary payload per cell
     iterations = 200          # optional, default 1
     nonwavefront = allreduce 2      # or: allreduce N BYTES (default 8-byte
                                     # messages) | stencil WG HALO |
                                     # fixed US | none
     perturb = seed=42 noise=uniform:0.2 straggler=3:50   # optional; the
                                     # clause syntax of Perturb.Spec.of_string
*)

type error = [ `Msg of string ]

let err fmt = Fmt.kstr (fun m -> Error (`Msg m)) fmt

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then Ok None
  else
    match String.index_opt line '=' with
    | None -> err "line %d: expected KEY = VALUE, got %S" lineno line
    | Some i ->
        let key = String.trim (String.sub line 0 i) in
        let value =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        if key = "" || value = "" then
          err "line %d: empty key or value" lineno
        else Ok (Some (String.lowercase_ascii key, value))

(* Bindings keep the line each came from, so value errors can point at
   the offending line rather than just naming the key. A key set twice
   is an error: neither value could be said to win. *)
let parse_bindings text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Error e -> Error e
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some (k, v)) -> (
            match List.assoc_opt k acc with
            | Some (_, first) ->
                err "line %d: repeated key %S (first set on line %d)" lineno k
                  first
            | None -> go ((k, (v, lineno)) :: acc) (lineno + 1) rest))
  in
  go [] 1 lines

let known_keys =
  [ "name"; "nx"; "ny"; "nz"; "wg"; "wg_pre"; "htile"; "nsweeps"; "nfull";
    "ndiag"; "schedule"; "bytes_per_cell"; "iterations"; "nonwavefront";
    "perturb" ]

type full = {
  app : Wavefront_core.App_params.t;
  perturb : Perturb.Spec.t option;
}

let full_of_string text =
  match parse_bindings text with
  | Error e -> Error e
  | Ok bindings -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem k known_keys)) bindings
      with
      | Some (k, (_, lineno)) ->
          err "line %d: unknown key %S (known: %s)" lineno k
            (String.concat ", " known_keys)
      | None -> (
          let get_loc k = List.assoc_opt k bindings in
          let get k = Option.map fst (get_loc k) in
          let get_int k =
            match get_loc k with
            | None -> Ok None
            | Some (v, lineno) -> (
                match int_of_string_opt v with
                | Some i -> Ok (Some i)
                | None ->
                    err "line %d: %s: expected an integer, got %S" lineno k v)
          in
          let get_float k =
            match get_loc k with
            | None -> Ok None
            | Some (v, lineno) -> (
                match float_of_string_opt v with
                | Some f -> Ok (Some f)
                | None ->
                    err "line %d: %s: expected a number, got %S" lineno k v)
          in
          let ( let* ) = Result.bind in
          let require k = function
            | Some v -> Ok v
            | None -> err "missing required key %S" k
          in
          let* nx = get_int "nx" in
          let* nx = require "nx" nx in
          let* ny = get_int "ny" in
          let* ny = require "ny" ny in
          let* nz = get_int "nz" in
          let* nz = require "nz" nz in
          let* wg = get_float "wg" in
          let* wg = require "wg" wg in
          let* wg_pre = get_float "wg_pre" in
          let* htile = get_float "htile" in
          let* nsweeps = get_int "nsweeps" in
          let* nfull = get_int "nfull" in
          let* ndiag = get_int "ndiag" in
          let* bytes_per_cell = get_float "bytes_per_cell" in
          let* iterations = get_int "iterations" in
          let* schedule =
            match get "schedule" with
            | None -> Ok None
            | Some "sweep3d" -> Ok (Some Sweeps.Schedule.sweep3d)
            | Some "lu" -> Ok (Some Sweeps.Schedule.lu)
            | Some "chimaera" -> Ok (Some Sweeps.Schedule.chimaera)
            | Some v ->
                err "schedule: expected sweep3d, lu or chimaera, got %S" v
          in
          let* () =
            if
              schedule <> None
              && (nsweeps <> None || nfull <> None || ndiag <> None)
            then
              err
                "schedule conflicts with nsweeps/nfull/ndiag: use one or the \
                 other"
            else Ok ()
          in
          let* nonwavefront =
            match get "nonwavefront" with
            | None | Some "none" -> Ok None
            | Some v -> (
                match String.split_on_char ' ' v |> List.filter (( <> ) "") with
                | [ "allreduce"; n ] -> (
                    match int_of_string_opt n with
                    | Some count ->
                        Ok
                          (Some
                             (Wavefront_core.App_params.Allreduce
                                { count; msg_size = 8 }))
                    | None -> err "nonwavefront: bad all-reduce count %S" n)
                | [ "allreduce"; n; bytes ] -> (
                    match (int_of_string_opt n, int_of_string_opt bytes) with
                    | Some count, Some msg_size when msg_size > 0 ->
                        Ok
                          (Some
                             (Wavefront_core.App_params.Allreduce
                                { count; msg_size }))
                    | _ ->
                        err "nonwavefront: bad all-reduce %S (want N [BYTES])"
                          v)
                | [ "stencil"; wg_s; halo ] -> (
                    match
                      (float_of_string_opt wg_s, float_of_string_opt halo)
                    with
                    | Some wg_stencil, Some halo_bytes_per_cell ->
                        Ok
                          (Some
                             (Stencil { wg_stencil; halo_bytes_per_cell }))
                    | _ -> err "nonwavefront: bad stencil %S" v)
                | [ "fixed"; us ] -> (
                    match float_of_string_opt us with
                    | Some t -> Ok (Some (Fixed t))
                    | None -> err "nonwavefront: bad fixed cost %S" v)
                | _ ->
                    err
                      "nonwavefront: expected 'allreduce N [BYTES]', \
                       'stencil WG HALO', 'fixed US' or 'none', got %S"
                      v)
          in
          let* perturb =
            match get_loc "perturb" with
            | None -> Ok None
            | Some (v, lineno) -> (
                (* Keep the structured clause/offset context so the error
                   points into the stanza's value, with the line it sits
                   on. *)
                match Perturb.Spec.of_string_loc v with
                | Ok p -> Ok (Some p)
                | Error e ->
                    err
                      "line %d: perturb: bad clause %S at offset %d of the \
                       stanza: %s"
                      lineno e.Perturb.Spec.clause e.position e.reason)
          in
          try
            Ok
              {
                app =
                  Custom.params
                    ?name:(get "name")
                    ?schedule ?nsweeps ?nfull
                    ?ndiag:(Option.map Fun.id ndiag)
                    ?wg_pre ?htile ?bytes_per_cell ?nonwavefront ?iterations
                    ~wg
                    (Wgrid.Data_grid.v ~nx ~ny ~nz);
                perturb;
              }
          with Invalid_argument m -> err "%s" m))

let of_string text = Result.map (fun f -> f.app) (full_of_string text)

let full_of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> full_of_string text
  | exception Sys_error m -> Error (`Msg m)

let of_file path = Result.map (fun f -> f.app) (full_of_file path)
