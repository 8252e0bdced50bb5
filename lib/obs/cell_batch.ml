(* A batch of finished timeline cells in flat arrays: the form in which
   the batched engine logs the cells a domain closes and hands them to
   its cell sink, so that closing, logging and folding a cell allocates
   nothing. Cell [i] of a batch [b], for [0 <= i < b.n]:

     b.ints.(3i) .. b.ints.(3i + 2)       rank, column, spans
     b.floats.(6i) .. b.floats.(6i + 5)   t_start, t_end, compute, send,
                                          recv, wait

   The producer's spans partition every window, so a cell's [idle] is 0
   and its [other] is the remainder
   [t_end - t_start - compute - send - recv - wait], computed in that
   order. *)

type t = {
  mutable n : int;
  mutable ints : int array;
  mutable floats : float array;
  (* Padding: one domain appends to a batch while others append to
     theirs, so no two batches' mutable fields may share a cache line. *)
  pad0 : int;
  pad1 : int;
  pad2 : int;
  pad3 : int;
  pad4 : int;
  pad5 : int;
  pad6 : int;
  pad7 : int;
}

let create () =
  {
    n = 0;
    ints = Array.make (3 * 64) 0;
    floats = Array.make (6 * 64) 0.0;
    pad0 = 0;
    pad1 = 0;
    pad2 = 0;
    pad3 = 0;
    pad4 = 0;
    pad5 = 0;
    pad6 = 0;
    pad7 = 0;
  }

let grow b =
  let double a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  b.ints <- double b.ints 0;
  b.floats <- double b.floats 0.0

let rank b i = b.ints.(3 * i)
let col b i = b.ints.((3 * i) + 1)

let cell b i : Timeline.cell =
  let f = b.floats and o = 6 * i in
  let t_start = f.(o) and t_end = f.(o + 1) in
  let compute = f.(o + 2) and send = f.(o + 3) in
  let recv = f.(o + 4) and wait = f.(o + 5) in
  {
    t_start;
    t_end;
    compute;
    send;
    recv;
    wait;
    other = t_end -. t_start -. compute -. send -. recv -. wait;
    idle = 0.0;
    spans = b.ints.((3 * i) + 2);
  }
