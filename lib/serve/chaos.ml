type spec = {
  fail_burst : int;
  fail_rate : float;
  slow_rate : float;
  slow_ms : float;
}

let none = { fail_burst = 0; fail_rate = 0.0; slow_rate = 0.0; slow_ms = 0.0 }

let v ?(fail_burst = 0) ?(fail_rate = 0.0) ?(slow_rate = 0.0) ?(slow_ms = 0.0)
    () =
  if fail_burst < 0 then invalid_arg "Chaos.v: fail_burst must be >= 0";
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg ("Chaos.v: " ^ name ^ " must be in [0, 1]")
  in
  rate "fail_rate" fail_rate;
  rate "slow_rate" slow_rate;
  if slow_ms < 0.0 then invalid_arg "Chaos.v: slow_ms must be >= 0";
  { fail_burst; fail_rate; slow_rate; slow_ms }

let enabled s =
  s.fail_burst > 0 || s.fail_rate > 0.0 || s.slow_rate > 0.0

type t = {
  spec : spec;
  burst_left : int Atomic.t;
  streams : Perturb.Prng.t array;  (* one per worker: deterministic per seed *)
  fails : int Atomic.t;
}

let create ~seed ~workers spec =
  if workers < 1 then invalid_arg "Chaos.create: workers must be >= 1";
  {
    spec;
    burst_left = Atomic.make spec.fail_burst;
    streams =
      Array.init workers (fun w -> Perturb.Prng.create ~seed ~stream:w);
    fails = Atomic.make 0;
  }

let take_burst t =
  let rec go () =
    let n = Atomic.get t.burst_left in
    if n <= 0 then false
    else if Atomic.compare_and_set t.burst_left n (n - 1) then true
    else go ()
  in
  go ()

let decide t ~worker =
  if take_burst t then begin
    Atomic.incr t.fails;
    `Fail
  end
  else
    let prng = t.streams.(worker) in
    let s = t.spec in
    if s.fail_rate > 0.0 && Perturb.Prng.bernoulli prng s.fail_rate then begin
      Atomic.incr t.fails;
      `Fail
    end
    else if s.slow_rate > 0.0 && Perturb.Prng.bernoulli prng s.slow_rate
    then `Slow (s.slow_ms /. 1000.0)
    else `Ok

let injected_failures t = Atomic.get t.fails
