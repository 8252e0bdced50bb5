(* A small MPI-like communicator over OCaml 5 domains: ranked blocking
   send/receive on point-to-point channels, a barrier, and an all-reduce.
   This is the "real machine" substrate of the reproduction — message
   passing with genuine payload copies and genuine blocking — in contrast to
   the discrete-event xtsim substrate that scales to thousands of cores. *)

type t = {
  ranks : int;
  channels : Channel.t array;  (* dst * ranks + src *)
  obs : Obs.Tracer.t array;  (* one tracer per rank, or [||] when off *)
  timeout_us : float option;  (* deadline on every blocking wait *)
  barrier_mutex : Mutex.t;
  barrier_cond : Condition.t;
  mutable barrier_count : int;
  mutable barrier_epoch : int;
}

exception Timeout of { rank : int; src : int; op : string; waited_us : float }

let () =
  Printexc.register_printer (function
    | Timeout { rank; src; op; waited_us } ->
        Some
          (Printf.sprintf
             "Shmpi.Comm.Timeout (rank %d, %s%s, waited %.0f us)" rank op
             (if src >= 0 then Printf.sprintf " from rank %d" src else "")
             waited_us)
    | _ -> None)

let create ?obs ?(log = false) ?timeout_us ranks =
  if ranks < 1 then invalid_arg "Comm.create: ranks must be >= 1";
  (match timeout_us with
  | Some u when u <= 0.0 -> invalid_arg "Comm.create: timeout must be > 0"
  | _ -> ());
  let obs =
    match obs with
    | None -> [||]
    | Some a ->
        if Array.length a <> ranks then
          invalid_arg "Comm.create: need one tracer per rank";
        a
  in
  let channels =
    Array.init (ranks * ranks) (fun _ ->
        let ch = Channel.create () in
        if log then Channel.enable_log ch;
        ch)
  in
  {
    ranks;
    channels;
    obs;
    timeout_us;
    barrier_mutex = Mutex.create ();
    barrier_cond = Condition.create ();
    barrier_count = 0;
    barrier_epoch = 0;
  }

let traced t = Array.length t.obs > 0

let ranks t = t.ranks

let check_rank t r name =
  if r < 0 || r >= t.ranks then invalid_arg ("Comm." ^ name ^ ": bad rank")

let channel t ~src ~dst = t.channels.((dst * t.ranks) + src)

let send t ~src ~dst payload =
  check_rank t src "send";
  check_rank t dst "send";
  let ch = channel t ~src ~dst in
  if not (traced t) then Channel.send ch payload
  else
    Obs.Tracer.span t.obs.(src) ~cat:"comm"
      ~args:
        [ ("dst", Obs.Span.Int dst); ("size", Int (Array.length payload)) ]
      ~rank:src "send"
      (fun () -> Channel.send ch payload)

(* A [recv] / [recv_into] against a dead upstream must surface as a
   [Timeout] rather than a hang: with a deadline configured, both go
   through the channel's polling deadline wait. *)
let recv_wait_deadline t ~dst ~src ch =
  match t.timeout_us with
  | None -> Channel.recv_wait ch
  | Some timeout_us -> (
      match Channel.recv_deadline ch ~timeout_us with
      | Some payload, wait -> (payload, wait)
      | None, waited_us ->
          raise (Timeout { rank = dst; src; op = "recv"; waited_us }))

let recv_into_deadline t ~dst ~src ch buf =
  match t.timeout_us with
  | None -> Channel.recv_into ch buf
  | Some timeout_us -> (
      match Channel.recv_into_deadline ch buf ~timeout_us with
      | Some payload, wait -> (payload, wait)
      | None, waited_us ->
          raise (Timeout { rank = dst; src; op = "recv_into"; waited_us }))

let recv t ~dst ~src =
  check_rank t src "recv";
  check_rank t dst "recv";
  let ch = channel t ~src ~dst in
  if not (traced t) then fst (recv_wait_deadline t ~dst ~src ch)
  else begin
    let tr = t.obs.(dst) in
    let clock = Obs.Tracer.clock tr in
    let t0 = clock () in
    let payload, wait = recv_wait_deadline t ~dst ~src ch in
    Obs.Tracer.record tr ~cat:"comm"
      ~args:
        [ ("src", Obs.Span.Int src); ("size", Int (Array.length payload));
          ("wait", Float wait) ]
      ~rank:dst ~start:t0
      ~dur:(clock () -. t0)
      "recv";
    payload
  end

let recv_into t ~dst ~src buf =
  check_rank t src "recv_into";
  check_rank t dst "recv_into";
  let ch = channel t ~src ~dst in
  if not (traced t) then fst (recv_into_deadline t ~dst ~src ch buf)
  else begin
    let tr = t.obs.(dst) in
    let clock = Obs.Tracer.clock tr in
    let t0 = clock () in
    let payload, wait = recv_into_deadline t ~dst ~src ch buf in
    Obs.Tracer.record tr ~cat:"comm"
      ~args:
        [ ("src", Obs.Span.Int src); ("size", Int (Array.length payload));
          ("wait", Float wait) ]
      ~rank:dst ~start:t0
      ~dur:(clock () -. t0)
      "recv";
    payload
  end

let barrier_impl t ~rank =
  Mutex.lock t.barrier_mutex;
  let epoch = t.barrier_epoch in
  t.barrier_count <- t.barrier_count + 1;
  if t.barrier_count = t.ranks then begin
    t.barrier_count <- 0;
    t.barrier_epoch <- t.barrier_epoch + 1;
    Condition.broadcast t.barrier_cond
  end
  else begin
    match t.timeout_us with
    | None ->
        while t.barrier_epoch = epoch do
          Condition.wait t.barrier_cond t.barrier_mutex
        done
    | Some timeout_us ->
        (* No timed [Condition.wait] in the stdlib, so the deadline path
           polls the epoch with {!Backoff.wait_until}'s default policy,
           the same one the channels use. A rank that gives up retracts
           its arrival so the barrier's count stays consistent for
           whoever inspects the wreckage. *)
        let t0 = Unix.gettimeofday () in
        let deadline = t0 +. (timeout_us *. 1e-6) in
        Mutex.unlock t.barrier_mutex;
        ignore
          (Backoff.wait_until ~deadline (fun () ->
               Mutex.lock t.barrier_mutex;
               let arrived = t.barrier_epoch <> epoch in
               Mutex.unlock t.barrier_mutex;
               arrived));
        Mutex.lock t.barrier_mutex;
        if t.barrier_epoch = epoch then begin
          t.barrier_count <- t.barrier_count - 1;
          Mutex.unlock t.barrier_mutex;
          raise
            (Timeout
               {
                 rank;
                 src = -1;
                 op = "barrier";
                 waited_us = (Unix.gettimeofday () -. t0) *. 1e6;
               })
        end
  end;
  Mutex.unlock t.barrier_mutex

let barrier t ~rank =
  if not (traced t) then barrier_impl t ~rank
  else
    Obs.Tracer.span t.obs.(rank) ~cat:"sync" ~rank "barrier" (fun () ->
        barrier_impl t ~rank)

(* Binomial-tree broadcast from [root]: in step k (counting down), ranks
   within 2^k of the root relay to rank + 2^k. All ranks must call. *)
let broadcast t ~rank ~root payload =
  check_rank t root "broadcast";
  let p = t.ranks in
  let rel = (rank - root + p) mod p in
  let steps =
    let rec go acc v = if v >= p then acc else go (acc + 1) (v * 2) in
    go 0 1
  in
  let payload = ref payload in
  for k = steps - 1 downto 0 do
    let bit = 1 lsl k in
    (* A rank participates at step k once its low bits are settled: senders
       have rel = 0 mod 2^(k+1), receivers rel = 2^k mod 2^(k+1). *)
    if rel mod (2 * bit) = 0 then begin
      if rel + bit < p then
        send t ~src:rank ~dst:((root + rel + bit) mod p) !payload
    end
    else if rel mod (2 * bit) = bit then
      payload := recv t ~dst:rank ~src:((root + rel - bit) mod p)
  done;
  !payload

(* Binomial-tree reduction to [root] with a per-element operator. *)
let reduce t ~rank ~root ~op payload =
  check_rank t root "reduce";
  let p = t.ranks in
  let rel = (rank - root + p) mod p in
  let steps =
    let rec go acc v = if v >= p then acc else go (acc + 1) (v * 2) in
    go 0 1
  in
  let acc = ref (Array.copy payload) in
  let live = ref true in
  for k = 0 to steps - 1 do
    let bit = 1 lsl k in
    if !live then
      if rel land bit <> 0 then begin
        send t ~src:rank ~dst:((root + (rel - bit)) mod p) !acc;
        live := false
      end
      else if rel + bit < p then begin
        let other = recv t ~dst:rank ~src:((root + rel + bit) mod p) in
        acc := Array.map2 op !acc other
      end
  done;
  if rank = root then Some !acc else None

(* Gather every rank's payload at [root], in rank order. *)
let gather t ~rank ~root payload =
  check_rank t root "gather";
  if rank = root then begin
    let parts =
      Array.init t.ranks (fun src ->
          if src = rank then Array.copy payload
          else recv t ~dst:rank ~src)
    in
    Some parts
  end
  else begin
    send t ~src:rank ~dst:root payload;
    None
  end

(* All-reduce by recursive doubling (the same structure the simulator and
   equation 9 use). Non-power-of-two rank counts fold the excess ranks onto
   the power-of-two prefix first and broadcast back at the end. *)
let allreduce_impl t ~rank ~op value =
  let p = t.ranks in
  let pow2 =
    let rec go v = if v * 2 > p then v else go (v * 2) in
    go 1
  in
  let value = ref value in
  let exchange partner v =
    send t ~src:rank ~dst:partner [| v |];
    (recv t ~dst:rank ~src:partner).(0)
  in
  if rank >= pow2 then begin
    (* Fold onto the partner in the prefix, then wait for the result. *)
    send t ~src:rank ~dst:(rank - pow2) [| !value |];
    value := (recv t ~dst:rank ~src:(rank - pow2)).(0)
  end
  else begin
    if rank + pow2 < p then
      value := op !value (recv t ~dst:rank ~src:(rank + pow2)).(0);
    let k = ref 1 in
    while !k < pow2 do
      let partner = rank lxor !k in
      value := op !value (exchange partner !value);
      k := !k * 2
    done;
    if rank + pow2 < p then send t ~src:rank ~dst:(rank + pow2) [| !value |]
  end;
  !value

let allreduce t ~rank ~op value =
  if not (traced t) then allreduce_impl t ~rank ~op value
  else
    Obs.Tracer.span t.obs.(rank) ~cat:"comm" ~rank "allreduce" (fun () ->
        allreduce_impl t ~rank ~op value)
