(* The discrete-event simulation core.

   Simulated processes are ordinary OCaml functions that perform the [Wait]
   and [Suspend] effects; the engine handles them with one-shot continuations
   stored in the event queue. [Wait d] advances the process's local clock by
   [d] simulated microseconds; [Suspend register] parks the process and hands
   [register] a resume thunk that any other event may call exactly once to
   reschedule it at the then-current simulated time. This keeps the simulated
   MPI programs in lib/xtsim and the substrate's blocking semantics in direct
   style, with no hand-written state machines. *)

type t = {
  mutable now : float;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable executed : int;
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let create () = { now = 0.0; seq = 0; events = Heap.create (); executed = 0 }
let now t = t.now

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: cannot schedule in the past";
  t.seq <- t.seq + 1;
  Heap.push t.events ~time:at ~seq:t.seq f

let schedule_after t ~delay f = schedule t ~at:(t.now +. delay) f

let wait d =
  if d < 0.0 then invalid_arg "Engine.wait: negative duration";
  if d > 0.0 then Effect.perform (Wait d)

let suspend register = Effect.perform (Suspend register)

let spawn t ?at f =
  let open Effect.Deep in
  let body () =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    schedule_after t ~delay:d (fun () -> continue k ()))
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let resumed = ref false in
                    register (fun () ->
                        if !resumed then
                          invalid_arg "Engine: process resumed twice";
                        resumed := true;
                        schedule t ~at:t.now (fun () -> continue k ())))
            | _ -> None);
      }
  in
  match at with
  | None -> schedule t ~at:t.now body
  | Some at -> schedule t ~at body

(* One event: advance the clock to the head of the queue and run it.
   [Heap.top_time] / [Heap.pop_top] box nothing — the drain loop's only
   allocations are the ones the event closures themselves make. *)
let step t =
  if Heap.is_empty t.events then false
  else begin
    t.now <- Heap.top_time t.events;
    t.executed <- t.executed + 1;
    (Heap.pop_top t.events) ();
    true
  end

let run t =
  while step t do
    ()
  done;
  t.now

let events_executed t = t.executed
