(* A bounded buffer with drop accounting, the storage under both the span
   tracer and the message trace. Two overflow policies: keep the earliest
   records (the historical Trace semantics, right for "how did the run
   start" questions) or overwrite the oldest (a true ring, right for "what
   happened just before the end" questions). Either way every push is
   counted, so the consumer can report exactly how much was lost. *)

type policy = Drop_newest | Overwrite_oldest

type 'a t = {
  capacity : int;
  policy : policy;
  buf : 'a option array;
  mutable head : int;  (* index of the oldest retained element *)
  mutable len : int;
  mutable pushed : int;  (* total pushes, including dropped *)
}

let create ?(policy = Drop_newest) ~capacity () =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { capacity; policy; buf = Array.make capacity None; head = 0; len = 0;
    pushed = 0 }

let push t x =
  t.pushed <- t.pushed + 1;
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some x;
    t.len <- t.len + 1
  end
  else
    match t.policy with
    | Drop_newest -> ()
    | Overwrite_oldest ->
        t.buf.(t.head) <- Some x;
        t.head <- (t.head + 1) mod t.capacity

let length t = t.len
let pushed t = t.pushed
let dropped t = t.pushed - t.len

let to_list t =
  List.init t.len (fun i ->
      match t.buf.((t.head + i) mod t.capacity) with
      | Some x -> x
      | None -> assert false)

let iter t f =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod t.capacity) with
    | Some x -> f x
    | None -> assert false
  done

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.head <- 0;
  t.len <- 0;
  t.pushed <- 0
