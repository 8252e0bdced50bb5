(* See bounded_queue.mli for the shed-on-full and drain-on-close
   contracts. One mutex, one condition: pushes never block, so only
   poppers ever wait. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (* also signalled by [close] to wake poppers *)
  items : 'a Queue.t;
  cap : int;
  mutable is_closed : bool;
  mutable pushed : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    cap = capacity;
    is_closed = false;
    pushed = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = locked t (fun () -> Queue.length t.items)
let pushed t = locked t (fun () -> t.pushed)

let try_push t x =
  locked t (fun () ->
      if t.is_closed then `Closed
      else if Queue.length t.items >= t.cap then `Full
      else begin
        Queue.push x t.items;
        t.pushed <- t.pushed + 1;
        Condition.signal t.nonempty;
        `Queued
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.items && not t.is_closed do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.items then None else Some (Queue.pop t.items))

let close t =
  locked t (fun () ->
      if not t.is_closed then begin
        t.is_closed <- true;
        Condition.broadcast t.nonempty
      end)
