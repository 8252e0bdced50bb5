(* A blocking FIFO channel between two domains, the transport under the
   real (shared-memory) message-passing runtime. Payloads are float arrays;
   the sender copies on enqueue so the receiver owns what it dequeues.

   A receiver using [recv_into] hands its dequeued buffers back to a small
   pool, and [send] draws its enqueue copy from the pool when a buffer of
   the right length is waiting — so a steady-state tile loop (fixed face
   sizes between a fixed pair of ranks) allocates nothing per message.

   Recovery support is a sender-side message log ([enable_log]): every
   enqueued payload is also retained, under monotone sequence numbers, until
   the receiver's checkpoint covers it ([release]). After a rollback the
   receiver rewinds its cursor and the logged tail is redelivered in order
   ([rewind_recv]); the respawned sender rewinds its own counter and its
   replayed sends are suppressed while they duplicate logged ones
   ([rewind_send]). Logged payloads alias the queued (and then
   receiver-held) arrays, so a logging channel never recycles buffers into
   the pool — pooling a logged array would let a later send blit over the
   log (and over data a receiver still holds). *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : float array Queue.t;
  pool : float array Queue.t;  (* recycled enqueue buffers *)
  mutable log : float array Queue.t option;  (* oldest entry has seq [base] *)
  mutable base : int;  (* seq of the log's oldest retained payload *)
  mutable sent : int;  (* seq the next send call will carry *)
  mutable high : int;  (* seqs below this are already logged/enqueued *)
  mutable recvd : int;  (* payloads the receiver has consumed *)
}

(* More than the queue ever holds in a steady-state tile loop; bounding it
   keeps a burst from pinning memory. *)
let pool_cap = 4

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    pool = Queue.create ();
    log = None;
    base = 0;
    sent = 0;
    high = 0;
    recvd = 0;
  }

let enable_log t =
  Mutex.lock t.mutex;
  if t.log = None then t.log <- Some (Queue.create ());
  Mutex.unlock t.mutex

(* Pop a pooled buffer of exactly [len] floats, if any (the pool can hold
   mixed lengths when tile heights vary; it is at most [pool_cap] long, so
   the scan is trivial). Caller holds the mutex. *)
let take_pooled t len =
  let n = Queue.length t.pool in
  let found = ref None in
  for _ = 1 to n do
    let b = Queue.pop t.pool in
    if !found = None && Array.length b = len then found := Some b
    else Queue.push b t.pool
  done;
  !found

(* Caller holds the mutex. The receive cursor advances on every dequeue so
   the counter is right whether or not logging is on. *)
let pop_locked t =
  let payload = Queue.pop t.queue in
  t.recvd <- t.recvd + 1;
  payload

(* Whether a dequeued internal buffer may enter the pool: never on a
   logging channel, where the log (and possibly a receiver) still aliases
   it and a pooled-buffer blit would corrupt both. Caller holds the
   mutex. *)
let may_pool t = t.log = None && Queue.length t.pool < pool_cap

let send t payload =
  let len = Array.length payload in
  Mutex.lock t.mutex;
  match t.log with
  | Some log ->
      (* Logging sends copy under the mutex: the counters, queue and log
         must move together, and pooled buffers are never used. A replayed
         send (seq < high after a sender rewind) duplicates a logged
         payload the receiver already has or will get from the log — it is
         suppressed. *)
      let seq = t.sent in
      t.sent <- seq + 1;
      if seq >= t.high then begin
        let copy = Array.copy payload in
        Queue.push copy t.queue;
        Queue.push copy log;
        t.high <- t.sent;
        Condition.signal t.nonempty
      end;
      Mutex.unlock t.mutex
  | None ->
      let pooled = take_pooled t len in
      Mutex.unlock t.mutex;
      let copy =
        match pooled with
        | Some b ->
            Array.blit payload 0 b 0 len;
            b
        | None -> Array.copy payload
      in
      Mutex.lock t.mutex;
      t.sent <- t.sent + 1;
      t.high <- t.sent;
      Queue.push copy t.queue;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex

let recv t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue do
    Condition.wait t.nonempty t.mutex
  done;
  let payload = pop_locked t in
  Mutex.unlock t.mutex;
  payload

(* As [recv], also reporting how long the caller was blocked on an empty
   queue (wall-clock us; 0 when a payload was already waiting). The clock
   is only read on the blocking path, so the fast path costs nothing. *)
let recv_wait t =
  Mutex.lock t.mutex;
  let wait =
    if Queue.is_empty t.queue then begin
      let t0 = Unix.gettimeofday () in
      while Queue.is_empty t.queue do
        Condition.wait t.nonempty t.mutex
      done;
      (Unix.gettimeofday () -. t0) *. 1e6
    end
    else 0.0
  in
  let payload = pop_locked t in
  Mutex.unlock t.mutex;
  (payload, wait)

(* As [recv_wait], but when the payload's length matches [dst]'s, its
   contents are blitted into [dst], the internal buffer is recycled for
   future sends (non-logging channels only), and [dst] is returned; on a
   length mismatch the payload itself is returned (the caller keeps the
   data either way). The buffer is recycled only after the blit — the
   sender may reuse it the moment it enters the pool. *)
let recv_into t dst =
  Mutex.lock t.mutex;
  let wait =
    if Queue.is_empty t.queue then begin
      let t0 = Unix.gettimeofday () in
      while Queue.is_empty t.queue do
        Condition.wait t.nonempty t.mutex
      done;
      (Unix.gettimeofday () -. t0) *. 1e6
    end
    else 0.0
  in
  let payload = pop_locked t in
  Mutex.unlock t.mutex;
  let len = Array.length payload in
  if len = Array.length dst then begin
    Array.blit payload 0 dst 0 len;
    Mutex.lock t.mutex;
    if may_pool t then Queue.push payload t.pool;
    Mutex.unlock t.mutex;
    (dst, wait)
  end
  else (payload, wait)

(* OCaml's [Condition] carries no timed wait, so a deadline receive polls
   the queue under the mutex and sleeps between probes with
   {!Backoff.wait_until}'s default policy (1 us doubling to a 1 ms cap):
   a payload already in flight is picked up within microseconds, while a
   dead sender costs at most one wakeup per millisecond until the
   deadline. A timed-out call pops nothing and pools nothing — the
   channel is left exactly as found, so it remains usable (and its
   counters consistent) after the timeout. *)

let recv_deadline t ~timeout_us =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. (timeout_us *. 1e-6) in
  let got = ref None in
  let ready () =
    Mutex.lock t.mutex;
    if not (Queue.is_empty t.queue) then begin
      got := Some (pop_locked t);
      Mutex.unlock t.mutex;
      true
    end
    else begin
      Mutex.unlock t.mutex;
      false
    end
  in
  ignore (Backoff.wait_until ~deadline ready);
  (!got, (Unix.gettimeofday () -. t0) *. 1e6)

let recv_into_deadline t dst ~timeout_us =
  match recv_deadline t ~timeout_us with
  | None, wait -> (None, wait)
  | Some payload, wait ->
      let len = Array.length payload in
      if len = Array.length dst then begin
        Array.blit payload 0 dst 0 len;
        Mutex.lock t.mutex;
        if may_pool t then Queue.push payload t.pool;
        Mutex.unlock t.mutex;
        (Some dst, wait)
      end
      else (Some payload, wait)

let try_recv t =
  Mutex.lock t.mutex;
  let payload =
    if Queue.is_empty t.queue then None else Some (pop_locked t)
  in
  Mutex.unlock t.mutex;
  payload

(* --- Recovery bookkeeping (logging channels) --- *)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let sent_mark t = locked t (fun () -> t.sent)
let recvd_mark t = locked t (fun () -> t.recvd)

(* Drop logged payloads below [upto]: the receiver's latest checkpoint
   covers them, so no rollback can ever ask for them again. The arrays are
   not recycled — a receiver may still hold them. *)
let release t ~upto =
  locked t (fun () ->
      match t.log with
      | None -> ()
      | Some log ->
          while t.base < upto && not (Queue.is_empty log) do
            ignore (Queue.pop log);
            t.base <- t.base + 1
          done)

(* Rewind the receive side to a checkpoint mark: everything the receiver
   consumed after [to_] is redelivered from the log, in order, ahead of
   whatever was still queued (which the log also holds — the queue is
   simply rebuilt as the logged suffix from [to_]). *)
let rewind_recv t ~to_ =
  let err =
    locked t (fun () ->
        match t.log with
        | None -> Some "Channel.rewind_recv: logging not enabled"
        | Some log ->
            if to_ < t.base then
              Some
                (Fmt.str
                   "Channel.rewind_recv: mark %d already released (base %d)"
                   to_ t.base)
            else begin
              Queue.clear t.queue;
              let skip = to_ - t.base in
              let i = ref 0 in
              Queue.iter
                (fun p ->
                  if !i >= skip then Queue.push p t.queue;
                  incr i)
                log;
              t.recvd <- to_;
              if not (Queue.is_empty t.queue) then Condition.signal t.nonempty;
              None
            end)
  in
  Option.iter invalid_arg err

(* Rewind the send side to a checkpoint mark: the respawned sender will
   re-issue sends from [to_], and [send] suppresses them while they
   duplicate logged payloads (seq < high). *)
let rewind_send t ~to_ =
  let err =
    locked t (fun () ->
        if t.log = None then Some "Channel.rewind_send: logging not enabled"
        else if to_ < 0 || to_ > t.high then
          Some (Fmt.str "Channel.rewind_send: mark %d out of range" to_)
        else begin
          t.sent <- to_;
          None
        end)
  in
  Option.iter invalid_arg err
