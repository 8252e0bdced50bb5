(* A perturbation specification: everything that may push an execution off
   the ideal path the plug-and-play model assumes, as one seeded, fully
   deterministic description shared by every substrate.

   The textual form is a whitespace-separated list of clauses, usable on a
   `wavefront perturb --perturb "..."` command line or as the value of a
   spec file's `perturb = ...` stanza:

     seed=42                  # stream seed (default 0)
     noise=uniform:0.15       # per-tile extra compute, frac of the tile's
                              # work drawn uniform in [0, 0.15)
     noise=exp:0.05           # or exponential with mean fraction 0.05
     link=0.02:5.0            # each message delayed 5 us with prob 0.02
     straggler=3:250          # rank 3 loses 250 us on every tile (repeatable)
     fail=5:40                # rank 5 dies before its 41st tile (repeatable)
     pulse=3:40:500           # rank 3 stalls 500 us in wave 40 (repeatable):
                              # the idle-wave source scenario
     periodic=16:120          # every rank stalls 120 us every 16th wave
     collnoise=80             # extra us per allreduce, uniform in [0, 80)

   Noise and delays are one-sided: OS noise, contention and stragglers only
   ever steal time, never refund it, which is what makes predicted and
   simulated runtimes monotone in every amplitude (the regression tests pin
   this down). *)

type noise =
  | No_noise
  | Uniform of float  (* extra fraction drawn uniform in [0, amplitude) *)
  | Exponential of float  (* extra fraction, exponential with this mean *)

type link = { prob : float; delay : float }
type straggler = { rank : int; delay : float }
type failure = { rank : int; after_tiles : int }
type pulse = { rank : int; wave : int; delay : float }
type periodic = { period : int; amplitude : float }

type t = {
  seed : int;
  noise : noise;
  link : link option;
  stragglers : straggler list;
  failures : failure list;
  pulses : pulse list;
  periodic : periodic option;
  coll_noise : float;
}

let zero =
  {
    seed = 0;
    noise = No_noise;
    link = None;
    stragglers = [];
    failures = [];
    pulses = [];
    periodic = None;
    coll_noise = 0.0;
  }

let is_zero t =
  (match t.noise with
  | No_noise -> true
  | Uniform a | Exponential a -> a = 0.0)
  && (match t.link with
     | None -> true
     | Some { prob; delay } -> prob = 0.0 || delay = 0.0)
  && List.for_all (fun (s : straggler) -> s.delay = 0.0) t.stragglers
  && t.failures = []
  && List.for_all (fun (p : pulse) -> p.delay = 0.0) t.pulses
  && (match t.periodic with
     | None -> true
     | Some { amplitude; _ } -> amplitude = 0.0)
  && t.coll_noise = 0.0

(* The one range check: every value finite and inside its clause's
   domain (NaN fails every comparison, so it is rejected too). [v] raises
   on the reason and [of_string] reports it against the clause that
   introduced the value; [None] means the spec is valid. *)
let check t =
  let need ok fmt = Fmt.kstr (fun m -> if ok then None else Some m) fmt in
  let amount what x =
    need (Float.is_finite x && x >= 0.0) "%s must be finite and >= 0, got %g"
      what x
  in
  let index what i = need (i >= 0) "%s must be >= 0, got %d" what i in
  List.find_map Fun.id
    ((match t.noise with
     | No_noise -> []
     | Uniform a -> [ amount "noise amplitude" a ]
     | Exponential m -> [ amount "noise mean" m ])
    @ (match t.link with
      | None -> []
      | Some { prob; delay } ->
          [ need (prob >= 0.0 && prob <= 1.0)
              "link probability must be in [0, 1], got %g" prob;
            amount "link delay" delay ])
    @ List.concat_map
        (fun ({ rank; delay } : straggler) ->
          [ index "straggler rank" rank; amount "straggler delay" delay ])
        t.stragglers
    @ List.concat_map
        (fun { rank; after_tiles } ->
          [ index "fail rank" rank; index "fail tile count" after_tiles ])
        t.failures
    @ List.concat_map
        (fun { rank; wave; delay } ->
          [ index "pulse rank" rank; index "pulse wave" wave;
            amount "pulse delay" delay ])
        t.pulses
    @ (match t.periodic with
      | None -> []
      | Some { period; amplitude } ->
          [ need (period >= 1) "periodic period must be >= 1, got %d" period;
            amount "periodic amplitude" amplitude ])
    @ [ amount "collnoise amplitude" t.coll_noise ])

let v ?(seed = 0) ?(noise = No_noise) ?link ?(stragglers = [])
    ?(failures = []) ?(pulses = []) ?periodic ?(coll_noise = 0.0) () =
  let t =
    { seed; noise; link; stragglers; failures; pulses; periodic; coll_noise }
  in
  match check t with
  | None -> t
  | Some reason -> invalid_arg ("Perturb.Spec.v: " ^ reason)

(* The expected extra compute fraction per tile, the analytic side's view
   of the noise distribution. *)
let mean_noise_frac t =
  match t.noise with
  | No_noise -> 0.0
  | Uniform a -> a /. 2.0
  | Exponential m -> m

let max_rank t =
  List.fold_left
    (fun acc r -> max acc r)
    (-1)
    (List.map (fun (s : straggler) -> s.rank) t.stragglers
    @ List.map (fun (f : failure) -> f.rank) t.failures
    @ List.map (fun (p : pulse) -> p.rank) t.pulses)

(* Expected extra us per wave, per rank, from the deterministic scenario
   clauses alone (pulses are localized and excluded): the idle-wave model's
   background-noise level when the compute-noise clause is absent. *)
let periodic_mean_per_wave t =
  match t.periodic with
  | None -> 0.0
  | Some { period; amplitude } -> amplitude /. float_of_int period

(* --- Parsing --- *)

type parse_error = { clause : string; position : int; reason : string }

let pp_parse_error ppf e =
  Fmt.pf ppf "perturb: bad clause %S at offset %d: %s" e.clause e.position
    e.reason

(* Clause-local parsing reports only a reason; of_string attaches the
   clause text and its byte offset in the input. *)
let err fmt = Fmt.kstr (fun m -> Error m) fmt

(* Clause syntax only: the values' ranges are [check]'s business. *)
let parse_clause spec clause =
  let float_of s = float_of_string_opt s in
  let int_of s = int_of_string_opt s in
  let two v of_a of_b ~shape k =
    match String.split_on_char ':' v with
    | [ a; b ] -> (
        match (of_a a, of_b b) with
        | Some a, Some b -> Ok (k a b)
        | _ -> err "expected %s" shape)
    | _ -> err "expected %s" shape
  in
  let three v of_a of_b of_c ~shape k =
    match String.split_on_char ':' v with
    | [ a; b; c ] -> (
        match (of_a a, of_b b, of_c c) with
        | Some a, Some b, Some c -> Ok (k a b c)
        | _ -> err "expected %s" shape)
    | _ -> err "expected %s" shape
  in
  match String.index_opt clause '=' with
  | None -> err "expected KEY=VALUE"
  | Some i -> (
      let key = String.sub clause 0 i in
      let v = String.sub clause (i + 1) (String.length clause - i - 1) in
      match key with
      | "seed" -> (
          match int_of v with
          | Some seed -> Ok { spec with seed }
          | None -> err "seed wants an integer, got %S" v)
      | "noise" -> (
          match String.split_on_char ':' v with
          | [ "uniform"; a ] | [ a ] -> (
              match float_of a with
              | Some a -> Ok { spec with noise = Uniform a }
              | None -> err "noise amplitude must be a float, got %S" a)
          | [ "exp"; m ] -> (
              match float_of m with
              | Some m -> Ok { spec with noise = Exponential m }
              | None -> err "noise mean must be a float, got %S" m)
          | _ -> err "expected noise=uniform:FRAC, noise=exp:FRAC or \
                      noise=FRAC")
      | "link" ->
          two v float_of float_of ~shape:"link=PROB:DELAY_US"
            (fun prob delay -> { spec with link = Some { prob; delay } })
      | "straggler" ->
          two v int_of float_of ~shape:"straggler=RANK:DELAY_US"
            (fun rank delay ->
              { spec with stragglers = spec.stragglers @ [ { rank; delay } ] })
      | "fail" ->
          two v int_of int_of ~shape:"fail=RANK:AFTER_TILES"
            (fun rank after_tiles ->
              {
                spec with
                failures = spec.failures @ [ { rank; after_tiles } ];
              })
      | "pulse" ->
          three v int_of int_of float_of ~shape:"pulse=RANK:WAVE:DELAY_US"
            (fun rank wave delay ->
              { spec with pulses = spec.pulses @ [ { rank; wave; delay } ] })
      | "periodic" ->
          two v int_of float_of ~shape:"periodic=PERIOD_WAVES:AMPLITUDE_US"
            (fun period amplitude ->
              { spec with periodic = Some { period; amplitude } })
      | "collnoise" -> (
          match float_of v with
          | Some a -> Ok { spec with coll_noise = a }
          | None -> err "collnoise amplitude must be a float, got %S" v)
      | _ ->
          err
            "unknown clause %S (known: seed, noise, link, straggler, fail, \
             pulse, periodic, collnoise)"
            key)

(* Clauses with the byte offset each starts at, so errors can point into
   the user's input. Separators: space, tab, semicolon. *)
let tokenize text =
  let n = String.length text in
  let sep c = c = ' ' || c = '\t' || c = ';' in
  let rec go i acc =
    if i >= n then List.rev acc
    else if sep text.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (sep text.[!j]) do
        incr j
      done;
      go !j ((String.sub text i (!j - i), i) :: acc)
    end
  in
  go 0 []

let of_string_loc text =
  List.fold_left
    (fun acc (clause, position) ->
      Result.bind acc (fun spec ->
          Result.bind (parse_clause spec clause) (fun spec ->
              match check spec with None -> Ok spec | Some r -> Error r)
          |> Result.map_error (fun reason -> { clause; position; reason })))
    (Ok zero) (tokenize text)

let of_string text =
  Result.map_error
    (fun e -> `Msg (Fmt.str "%a" pp_parse_error e))
    (of_string_loc text)

let pp_noise ppf = function
  | No_noise -> ()
  | Uniform a -> Fmt.pf ppf " noise=uniform:%g" a
  | Exponential m -> Fmt.pf ppf " noise=exp:%g" m

let pp ppf t =
  Fmt.pf ppf "seed=%d%a" t.seed pp_noise t.noise;
  (match t.link with
  | None -> ()
  | Some { prob; delay } -> Fmt.pf ppf " link=%g:%g" prob delay);
  List.iter
    (fun ({ rank; delay } : straggler) ->
      Fmt.pf ppf " straggler=%d:%g" rank delay)
    t.stragglers;
  List.iter
    (fun { rank; after_tiles } -> Fmt.pf ppf " fail=%d:%d" rank after_tiles)
    t.failures;
  List.iter
    (fun { rank; wave; delay } -> Fmt.pf ppf " pulse=%d:%d:%g" rank wave delay)
    t.pulses;
  (match t.periodic with
  | None -> ()
  | Some { period; amplitude } ->
      Fmt.pf ppf " periodic=%d:%g" period amplitude);
  if t.coll_noise > 0.0 then Fmt.pf ppf " collnoise=%g" t.coll_noise

let to_string t = Fmt.str "%a" pp t
