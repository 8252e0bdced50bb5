(* The perturbation and recovery protocol: a spec and a recovery policy
   instantiated for a run, executed identically by every substrate.

   Substrates call five step functions at fixed points of the Figure-4
   program, and this module makes every draw, every kill and every
   recovery charge there, in program order:

   - [tile_begin], at every tile step: on a checkpoint wave, count the
     snapshot and charge its cost;
   - [before_compute], at every tile compute: advance the rank's tile
     counter and, when the spec kills the rank here, raise [Killed] — or,
     under a recovery policy, revive it in place and charge the restart
     and the replay of the waves lost since its last checkpoint;
   - [after_compute], after the tile's own work: one noise draw, then the
     straggler, pulse and periodic stalls;
   - [before_send], before every wavefront send: one link draw;
   - [before_allreduce], before every allreduce call: one collective
     draw.

   That order is the alignment contract that lets one seeded spec inject
   the same delays into the event simulator, the batched engine and the
   real runtime. A substrate supplies only [spend kind d] — how a delay
   of [d] us is spent and attributed — which is never called with
   [d <= 0]; [span_name kind] is the span every substrate and report
   names it by. Each rank touches only its own streams and counters, so
   one model can be shared by every rank of a domains-based runtime
   without synchronization. Zero-amplitude clauses draw nothing and
   inject nothing, so a zero spec is bitwise indistinguishable from no
   spec at all. *)

exception Killed of { rank : int; tile : int }

let () =
  Printexc.register_printer (function
    | Killed { rank; tile } ->
        Some
          (Printf.sprintf
             "Perturb.Model.Killed: rank %d killed by the perturbation spec \
              before tile %d"
             rank tile)
    | _ -> None)

type kind =
  | Noise
  | Straggler
  | Pulse
  | Periodic
  | Link
  | Collnoise
  | Checkpoint
  | Restart
  | Replay

let span_name = function
  | Noise -> "perturb.noise"
  | Straggler -> "perturb.straggler"
  | Pulse -> "perturb.pulse"
  | Periodic -> "perturb.periodic"
  | Link -> "perturb.link"
  | Collnoise -> "perturb.collnoise"
  | Checkpoint -> "recover.checkpoint"
  | Restart -> "recover.restart"
  | Replay -> "recover.replay"

type t = {
  spec : Spec.t;
  policy : Recover.policy;  (* [Recover.disabled] without recovery *)
  noise : Prng.t array;  (* one compute-noise stream per rank *)
  links : Prng.t array;  (* one link-delay stream per sending rank *)
  colls : Prng.t array;  (* one collective-noise stream per rank *)
  straggle : float array;  (* per-rank per-tile extra, us *)
  fail_after : int array;  (* tile at which the rank dies; max_int = never *)
  tiles : int array;  (* tile computes started per rank *)
  pulses : (int * float) list array;  (* per-rank (wave, delay) stalls *)
  revived : bool array;
  ckpts : int array;  (* per rank, so domains never share a counter *)
}

let create ?perturb ?(recover = Recover.disabled) ~ranks () =
  match perturb with
  | None when not (Recover.enabled recover) -> None
  | _ ->
      let spec = Option.value perturb ~default:Spec.zero in
      if ranks < 1 then
        invalid_arg "Perturb.Model.create: ranks must be >= 1";
      let top = Spec.max_rank spec in
      if top >= ranks then
        Fmt.invalid_arg
          "Perturb.Model.create: spec names rank %d but the run has only \
           %d ranks"
          top ranks;
      let straggle = Array.make ranks 0.0 in
      List.iter
        (fun (s : Spec.straggler) ->
          straggle.(s.rank) <- straggle.(s.rank) +. s.delay)
        spec.stragglers;
      let fail_after = Array.make ranks max_int in
      List.iter
        (fun (f : Spec.failure) ->
          fail_after.(f.rank) <- min fail_after.(f.rank) f.after_tiles)
        spec.failures;
      let pulses = Array.make ranks [] in
      List.iter
        (fun (p : Spec.pulse) ->
          pulses.(p.rank) <- pulses.(p.rank) @ [ (p.wave, p.delay) ])
        spec.pulses;
      let streams k =
        Array.init ranks (fun r ->
            Prng.create ~seed:spec.seed ~stream:((k * ranks) + r))
      in
      Some
        {
          spec;
          policy = recover;
          noise = streams 0;
          links = streams 1;
          colls = streams 2;
          straggle;
          fail_after;
          tiles = Array.make ranks 0;
          pulses;
          revived = Array.make ranks false;
          ckpts = Array.make ranks 0;
        }

let spend_pos spend kind d = if d > 0.0 then spend kind d

(* The snapshot is taken before the wave's compute, so a failure at a
   checkpoint wave loses nothing. *)
let tile_begin t ~rank ~wave spend =
  if Recover.due ~interval:t.policy.interval ~wave then begin
    t.ckpts.(rank) <- t.ckpts.(rank) + 1;
    spend_pos spend Checkpoint t.policy.ckpt_cost
  end

(* Recovery's replacement semantics: the spec's failure is fail-stop, so
   a respawned rank never dies again. The tile counter keeps advancing
   (draw alignment is untouched); only the death sentence is lifted. *)
let revive t ~rank = t.fail_after.(rank) <- max_int

(* The tile counter before this compute is the rank's global wave: one
   per tile compute, counted across sweeps and iterations. *)
let before_compute t ~rank ~tile ~wave_cost spend =
  let wave = t.tiles.(rank) in
  t.tiles.(rank) <- wave + 1;
  if wave >= t.fail_after.(rank) then begin
    if not (Recover.enabled t.policy) then raise (Killed { rank; tile });
    revive t ~rank;
    t.revived.(rank) <- true;
    spend_pos spend Restart t.policy.restart_cost;
    spend_pos spend Replay
      (float_of_int (Recover.lost_waves t.policy ~fail_wave:wave)
      *. wave_cost)
  end

(* Noise scales with the tile's unperturbed [work] and consumes one draw
   iff the clause has a non-zero amplitude, so the draw sequence is the
   same whether the substrate measures [work] (real runtime) or models it
   (simulators). The wave-indexed stalls are draw-free. *)
let after_compute t ~rank ~work spend =
  let wave = t.tiles.(rank) - 1 in
  spend_pos spend Noise
    (match t.spec.noise with
    | Spec.No_noise -> 0.0
    | Uniform a ->
        if a = 0.0 then 0.0 else Prng.uniform t.noise.(rank) a *. work
    | Exponential m ->
        if m = 0.0 then 0.0 else Prng.exponential t.noise.(rank) m *. work);
  spend_pos spend Straggler t.straggle.(rank);
  spend_pos spend Pulse
    (List.fold_left
       (fun acc (w, delay) -> if w = wave then acc +. delay else acc)
       0.0 t.pulses.(rank));
  match t.spec.periodic with
  | Some { period; amplitude } when wave >= 0 && wave mod period = period - 1
    ->
      spend_pos spend Periodic amplitude
  | _ -> ()

let before_send t ~rank spend =
  match t.spec.link with
  | Some { prob; delay } when prob <> 0.0 && delay <> 0.0 ->
      if Prng.bernoulli t.links.(rank) prob then spend_pos spend Link delay
  | _ -> ()

let before_allreduce t ~rank spend =
  let a = t.spec.coll_noise in
  if a <> 0.0 then spend_pos spend Collnoise (Prng.uniform t.colls.(rank) a)

let is_straggler t ~rank = t.straggle.(rank) > 0.0

let recovered t =
  List.filter
    (fun r -> t.revived.(r))
    (List.init (Array.length t.revived) Fun.id)

let checkpoints t = Array.fold_left ( + ) 0 t.ckpts
