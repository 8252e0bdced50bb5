(* The single definition of the repository's polling backoff: 1 us
   doubling to a 1 ms cap (see backoff.mli for why it exists). *)

type policy = { min_s : float; max_s : float }

let v ~min_s ~max_s =
  if not (min_s > 0.0 && min_s <= max_s) then
    invalid_arg "Backoff.v: need 0 < min_s <= max_s";
  { min_s; max_s }

(* The channel/barrier poll policy: a payload already in flight is picked
   up within microseconds, while a dead peer costs at most one wakeup per
   millisecond until the deadline. *)
let poll = { min_s = 1e-6; max_s = 1e-3 }

let wait_until ?(policy = poll) ~deadline ready =
  let rec go sleep =
    if ready () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf sleep;
      go (Float.min (sleep *. 2.0) policy.max_s)
    end
  in
  go policy.min_s
