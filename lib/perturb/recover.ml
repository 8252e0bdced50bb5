(* The recovery-aware runtime model: checkpoint/rollback as plug-in
   parameters, layered on the perturbed (r5)-style bound the same way
   noise and stragglers are.

   A policy is the pair the classic checkpointing literature studies —
   the interval [K] (waves between checkpoints) and the per-checkpoint
   cost [C] — plus a restart cost [R] for respawning a rank from its
   snapshot. The run-time overhead decomposes into three closed-form
   terms:

   - checkpointing:  [n_ckpt(K) * C]   with [n_ckpt(K) = (waves-1)/K],
   - restart:        [R] per failure,
   - rework:         the waves lost between the failing rank's last
                     checkpoint and its death, re-executed at [T_wave]
                     each — [fail_wave mod K] when the failure wave is
                     known, [K/2] in expectation when only a failure
                     count is.

   Balancing expected rework [f * K * T_wave / 2] against checkpoint
   overhead [waves/K * C] gives the Daly-style optimum
   [K* = sqrt (2 * waves * C / (f * T_wave))].

   Every substrate and the model must agree on this arithmetic:
   [due]/[checkpoints]/[lost_waves] here are the single source of truth
   for [Perturb.Model]'s protocol and the real runtime's snapshot
   schedule. *)

type policy = {
  interval : int;  (* K: waves between checkpoints; 0 disables recovery *)
  ckpt_cost : float;  (* C: microseconds per checkpoint *)
  restart_cost : float;  (* R: microseconds to respawn from a snapshot *)
}

let v ?(ckpt_cost = 0.0) ?(restart_cost = 0.0) interval =
  if interval < 0 then invalid_arg "Recover.v: interval must be >= 0";
  if ckpt_cost < 0.0 || restart_cost < 0.0 then
    invalid_arg "Recover.v: costs must be >= 0";
  { interval; ckpt_cost; restart_cost }

let disabled = { interval = 0; ckpt_cost = 0.0; restart_cost = 0.0 }
let enabled p = p.interval > 0

let pp ppf p =
  if not (enabled p) then Fmt.string ppf "disabled"
  else
    Fmt.pf ppf "K=%d C=%.4gus R=%.4gus" p.interval p.ckpt_cost p.restart_cost

(* Wave [w] is a checkpoint wave iff [K > 0 && w > 0 && w mod K = 0]:
   the snapshot is taken at the wave's tile_begin, before its compute,
   so a failure *at* a checkpoint wave loses nothing. *)
let due ~interval ~wave = interval > 0 && wave > 0 && wave mod interval = 0

(* Checkpoint waves among [0 .. waves-1]: wave 0 is never due, so the
   count is [(waves - 1) / K]. *)
let checkpoints ~interval ~waves =
  if interval <= 0 || waves <= 0 then 0 else (waves - 1) / interval

(* Waves re-executed when a rank dies at [fail_wave]: the distance back
   to its last checkpoint. With recovery disabled everything from wave 0
   is lost (the degenerate "restart the run" reading). *)
let lost_waves p ~fail_wave =
  if fail_wave <= 0 then 0
  else if p.interval <= 0 then fail_wave
  else fail_wave mod p.interval

type term = {
  checkpoint : float;  (* total checkpoint overhead over the run *)
  restart : float;  (* total respawn cost *)
  rework : float;  (* lost waves re-executed *)
  total : float;
}

let zero_term = { checkpoint = 0.0; restart = 0.0; rework = 0.0; total = 0.0 }

let make_term ~checkpoint ~restart ~rework =
  { checkpoint; restart; rework; total = checkpoint +. restart +. rework }

(* The overhead of a concrete failure schedule: [fail_waves] holds the
   global wave index at which each failure strikes (one entry per
   failure; the wavefront's fail-stop-with-replacement reading). This is
   what the simulators reproduce wave-for-wave, so the recover report
   compares against it rather than the expectation. *)
let deterministic_term p ~waves ~wave_cost ~fail_waves =
  if not (enabled p) then zero_term
  else
    let checkpoint =
      float_of_int (checkpoints ~interval:p.interval ~waves) *. p.ckpt_cost
    in
    let restart =
      float_of_int (List.length fail_waves) *. p.restart_cost
    in
    let rework =
      List.fold_left
        (fun acc w ->
          acc +. (float_of_int (lost_waves p ~fail_wave:w) *. wave_cost))
        0.0 fail_waves
    in
    make_term ~checkpoint ~restart ~rework

(* The expectation when only a failure count is known: each failure
   lands uniformly within its interval, losing K/2 waves on average. *)
let expected_term p ~waves ~wave_cost ~failures =
  if not (enabled p) then zero_term
  else
    let f = float_of_int failures in
    let checkpoint =
      float_of_int (checkpoints ~interval:p.interval ~waves) *. p.ckpt_cost
    in
    let restart = f *. p.restart_cost in
    let rework =
      f *. float_of_int p.interval /. 2.0 *. wave_cost
    in
    make_term ~checkpoint ~restart ~rework

(* Daly's first-order optimum, in waves: minimise
   [waves/K * C + f * K * T_wave / 2] over K, giving
   [K* = sqrt (2 * waves * C / (f * T_wave))], clamped to [1, waves].
   Degenerate corners keep the right monotonic reading: free
   checkpoints -> every wave; nothing failing (or free waves) ->
   checkpoint as rarely as possible. *)
let optimal_interval ~waves ~wave_cost ~failures ~ckpt_cost =
  if waves <= 1 then 1
  else if failures <= 0 || wave_cost <= 0.0 then waves
  else if ckpt_cost <= 0.0 then 1
  else
    let k =
      sqrt
        (2.0 *. float_of_int waves *. ckpt_cost
        /. (float_of_int failures *. wave_cost))
    in
    let k = int_of_float (Float.round k) in
    max 1 (min waves k)
