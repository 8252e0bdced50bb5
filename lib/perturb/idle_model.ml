(* The closed-form idle-wave term (Afzal, Hager & Wellein,
   arXiv:2103.03175), specialized to the tied wavefront pipeline.

   In the steady state of the Figure-4 pipeline every interior rank is
   exactly tied: the face from upstream arrives at the instant the rank
   finishes its previous wave, so slack is zero and an injected stall of
   [delta] us propagates downstream undamped on a silent system. The
   front crosses one rank hop per

     hop_cost = send_busy + in_flight + recv_overhead + w_pre + w

   us of wall-clock time (the LogGP link cost plus one tile compute; see
   [Wrun.Costs.hop_latency]), while the pipeline advances one wave every

     wave_period = send_busy + recv_overhead + w_pre + w

   us ([Wrun.Costs.steady_period] — the same terms minus the flight time,
   which both rank- and wave-axis constraints share). The classical
   "ranks per wave" propagation speed is therefore wave_period /
   hop_cost, and the silent-system speed in wall-clock terms is 1 /
   hop_cost ranks per us.

   Background noise gives downstream ranks their own lateness, which
   absorbs part of the arriving wave: to first order an expected
   [noise_mean] us of extra work per wave eats noise_mean off the
   amplitude at every hop, i.e. an exponential decay with rate

     lambda = noise_mean / delta   (per hop)

   — larger pulses survive longer, noisier systems damp faster, and a
   silent system (noise_mean = 0) never decays, which is exactly the
   regime the cell-for-cell substrate identity pins down. *)

type t = {
  delta : float;
  origin_rank : int;
  origin_wave : int;
  hop_cost : float;
  wave_period : float;
  noise_mean : float;
}

let invalid fmt = Fmt.kstr invalid_arg fmt

let v ?(noise_mean = 0.0) ~delta ~origin_rank ~origin_wave ~hop_cost
    ~wave_period () =
  if delta < 0.0 || not (Float.is_finite delta) then
    invalid "Perturb.Idle_model.v: delta %g must be finite and >= 0" delta;
  if hop_cost <= 0.0 then
    invalid "Perturb.Idle_model.v: hop cost %g must be > 0" hop_cost;
  if wave_period <= 0.0 then
    invalid "Perturb.Idle_model.v: wave period %g must be > 0" wave_period;
  if noise_mean < 0.0 then
    invalid "Perturb.Idle_model.v: noise mean %g must be >= 0" noise_mean;
  if origin_rank < 0 then
    invalid "Perturb.Idle_model.v: negative origin rank";
  if origin_wave < 0 then
    invalid "Perturb.Idle_model.v: negative origin wave";
  { delta; origin_rank; origin_wave; hop_cost; wave_period; noise_mean }

(* A model instance for the first pulse of a spec; None when the spec has
   no idle-wave source. The background noise level combines the compute
   noise clause (expected fraction of a [work]-us tile) with the periodic
   clause's per-wave mean. *)
let of_spec ?(work = 0.0) (spec : Spec.t) ~hop_cost ~wave_period =
  match spec.pulses with
  | [] -> None
  | p :: _ ->
      let noise_mean =
        (Spec.mean_noise_frac spec *. work)
        +. Spec.periodic_mean_per_wave spec
      in
      Some
        (v ~noise_mean ~delta:p.delay ~origin_rank:p.rank ~origin_wave:p.wave
           ~hop_cost ~wave_period ())

let delta t = t.delta
let origin t = (t.origin_rank, t.origin_wave)
let hop_cost t = t.hop_cost
let wave_period t = t.wave_period

let speed t = 1.0 /. t.hop_cost
let ranks_per_wave t = t.wave_period /. t.hop_cost
let decay t = if t.delta <= 0.0 then 0.0 else t.noise_mean /. t.delta
