(* The correctness oracle. Every answer the daemon gives is checked
   against the in-process model; a wrong answer is a failure, never a
   fast response. Expected values are computed once per distinct request
   and verdicts once per distinct (request, reply) pair. *)

module Api = Serve.Api
module Json = Obs.Json
module Plugplay = Wavefront_core.Plugplay

let bits = Int64.bits_of_float

let num key j =
  match Json.member key j with Some (Json.Num x) -> Some x | _ -> None

(* predict: [t_iteration] bit-identical to in-process
   [Plugplay.time_per_iteration] on the same body; a validated predict
   must also carry a [validation] object with a finite [error_pct]. *)
let check_predict ~expected ~validate body =
  match Json.of_string body with
  | exception Json.Parse_error _ -> false
  | j ->
      let t_ok =
        match num "t_iteration" j with
        | Some t -> bits t = bits expected
        | None -> false
      in
      let v_ok =
        (not validate)
        ||
        match Json.member "validation" j with
        | Some (Json.Obj _ as v) -> (
            match num "error_pct" v with
            | Some e -> Float.is_finite e
            | None -> false)
        | _ -> false
      in
      t_ok && v_ok

let expected_t_iteration req_body =
  match Api.parse_predict req_body with
  | Ok p -> Plugplay.time_per_iteration p.Api.app p.Api.cfg
  | Error m -> failwith ("benchmark generated an invalid predict: " ^ m)

(* In-process [Api.run_sweep] + [Api.pareto] of a sweep request, and
   the byte size of the rendered response. *)
let expected_sweep req_body =
  match Api.parse_sweep req_body with
  | Error m -> failwith ("benchmark generated an invalid sweep: " ^ m)
  | Ok s -> (
      match Api.run_sweep ~deadline:Serve.Deadline.none s with
      | `Done points ->
          let buf = Buffer.create (1 lsl 20) in
          Api.render_sweep_into buf s points;
          (Api.pareto points, Buffer.length buf)
      | `Expired _ -> assert false)

(* sweep: [evaluated] holds [points] entries and [frontier] equals the
   in-process Pareto frontier, field for field and bit for bit. *)
let check_sweep ~points ~frontier body =
  let same_point j (p : Api.point) =
    let int k = Option.map int_of_float (num k j) in
    let flt k = Option.map bits (num k j) in
    int "cols" = Some p.cols && int "rows" = Some p.rows && int "k" = Some p.k
    && int "cores" = Some p.cores
    && flt "htile" = Some (bits p.htile)
    && flt "total" = Some (bits p.total)
  in
  match Json.of_string body with
  | exception Json.Parse_error _ -> false
  | j -> (
      match (Json.member "evaluated" j, Json.member "frontier" j) with
      | Some (Json.List ev), Some (Json.List fr) ->
          num "points" j = Some (float_of_int points)
          && List.length ev = points
          && List.length fr = List.length frontier
          && List.for_all2 same_point fr frontier
      | _ -> false)

(* The verdict for one reply to [op]. *)
type t = {
  pools : Gen.pools;
  predict_t : float Lazy.t array;
  validate_t : float Lazy.t array;
  sweep_front : (Api.point list * int) Lazy.t array;
  memo : (Gen.op * string, bool) Hashtbl.t;
}

let create (pools : Gen.pools) =
  {
    pools;
    predict_t =
      Array.map (fun p -> lazy (expected_t_iteration p.Gen.p_body)) pools.predicts;
    validate_t =
      Array.map (fun p -> lazy (expected_t_iteration p.Gen.p_body)) pools.validates;
    sweep_front =
      Array.map (fun s -> lazy (expected_sweep s.Gen.s_body)) pools.sweeps;
    memo = Hashtbl.create 1024;
  }

let correct t op (r : Daemon.reply) =
  r.status = 200
  &&
  let key = (op, r.body) in
  match Hashtbl.find_opt t.memo key with
  | Some v -> v
  | None ->
      let v =
        match op with
        | Gen.Predict i ->
            check_predict ~expected:(Lazy.force t.predict_t.(i)) ~validate:false
              r.body
        | Gen.Validate i ->
            check_predict ~expected:(Lazy.force t.validate_t.(i)) ~validate:true
              r.body
        | Gen.Sweep i ->
            check_sweep ~points:t.pools.sweeps.(i).Gen.s_points
              ~frontier:(fst (Lazy.force t.sweep_front.(i))) r.body
      in
      Hashtbl.replace t.memo key v;
      v

(* Mean size of the pool's sweep responses, in KB: an exact count for a
   given seed. *)
let sweep_response_kb t =
  let bytes = Array.fold_left (fun a l -> a + snd (Lazy.force l)) 0 t.sweep_front in
  float_of_int bytes /. 1024.0 /. float_of_int (Array.length t.sweep_front)
