(* The reference dataflow backend: execute the schedule's precedence graph
   deterministically, with no event simulation and no domains.

   Every rank is an effect-based fiber (OCaml 5 one-shot continuations); a
   blocking receive on an empty channel suspends the fiber, a send wakes
   the waiting receiver, and a single FIFO run queue makes the interleaving
   deterministic. There is no clock: the only thing this backend computes
   is whether the program's blocking communication order is consistent —
   which makes it a fast deadlock/schedule validator and a message-sequence
   oracle at rank counts (100K+) where even the event-level simulator is
   expensive. When the run queue drains with unfinished ranks, the program
   has deadlocked and each stuck rank reports what it was blocked on.

   Perturbation (a Perturb.Spec.t) maps onto the clockless scheduler
   logically: a straggler rank's tasks go to a deferred queue that only
   drains when every other rank is blocked or done — the most adversarial
   legal ordering, so a completed run proves the precedence graph tolerates
   that rank always arriving last — and a spec'd failure ends the rank's
   fiber at its chosen tile, after which the outcome reports who starved
   and which sent messages were orphaned in flight. *)

open Wgrid

type msg = { axis : Substrate.axis; tile : int; bytes : int }

type outcome = {
  ranks : int;
  completed : bool;
  blocked : (int * string) list;
      (** stuck ranks and what each was waiting on (empty iff completed) *)
  failed : int list;  (** ranks killed by the perturbation spec, ascending *)
  recovered : int list;
      (** ranks that died but were revived by the checkpoint policy,
          ascending (empty unless a recovery policy is active) *)
  messages : int;
  orphaned : int;
      (** sent messages never received — non-zero flags a sender whose
          receiver died or a program leaking sends *)
  mismatches : string list;  (** face-description disagreements (capped) *)
}

let pp_outcome ppf o =
  if o.completed then
    Fmt.pf ppf "%d ranks completed, %d messages%s%s%s" o.ranks o.messages
      (if o.recovered = [] then ""
       else Fmt.str ", %d recovered" (List.length o.recovered))
      (if o.orphaned = 0 then "" else Fmt.str ", %d ORPHANED" o.orphaned)
      (match o.mismatches with
      | [] -> ""
      | l -> Fmt.str ", %d MISMATCHES" (List.length l))
  else if o.failed <> [] then
    Fmt.pf ppf
      "DEGRADED: rank(s) %s killed, %d of %d stuck, %d orphaned message(s)"
      (String.concat ", " (List.map string_of_int o.failed))
      (List.length o.blocked) o.ranks o.orphaned
  else
    Fmt.pf ppf "DEADLOCK: %d of %d ranks stuck (first: %s)"
      (List.length o.blocked) o.ranks
      (match o.blocked with
      | (r, why) :: _ -> Fmt.str "rank %d %s" r why
      | [] -> "?")

module Raw = struct
  type status =
    | Idle
    | Running
    | Blocked_recv of int  (* waiting on a message from this rank *)
    | Blocked_coll
    | Finished
    | Failed  (* killed by the perturbation spec *)

  (* Tasks carry the rank they run so the scheduler can route a
     straggler's work to the deferred queue at wake time. *)
  type task =
    | Start of int
    | Resume of int * (unit, unit) Effect.Deep.continuation

  type sched = {
    ranks : int;
    chans : (int, msg Queue.t) Hashtbl.t;  (* src * ranks + dst *)
    waiting : (int, (unit, unit) Effect.Deep.continuation) Hashtbl.t;
    runnable : task Queue.t;
    (* Straggler tasks; drained one at a time, only when [runnable] is
       empty — the most adversarial legal ordering. *)
    deferred : task Queue.t;
    straggler : bool array;
    failed : bool array;
    coll_parked : (int * (unit, unit) Effect.Deep.continuation) Queue.t;
    mutable coll_count : int;
    status : status array;
    mutable finished : int;
    mutable messages : int;
    mutable received : int;
    mutable program : int -> unit;
    mutable executed : bool;
  }

  type _ Effect.t +=
    | Block_recv : int -> unit Effect.t
    | Block_coll : unit Effect.t

  let create ~ranks =
    if ranks < 1 then invalid_arg "Dataflow.Raw.create: ranks must be >= 1";
    {
      ranks;
      chans = Hashtbl.create (4 * ranks);
      waiting = Hashtbl.create 64;
      runnable = Queue.create ();
      deferred = Queue.create ();
      straggler = Array.make ranks false;
      failed = Array.make ranks false;
      coll_parked = Queue.create ();
      coll_count = 0;
      status = Array.make ranks Idle;
      finished = 0;
      messages = 0;
      received = 0;
      program = ignore;
      executed = false;
    }

  let set_straggler t rank =
    if rank < 0 || rank >= t.ranks then
      invalid_arg "Dataflow.set_straggler: bad rank";
    t.straggler.(rank) <- true

  let enqueue t rank task =
    if t.straggler.(rank) then Queue.push task t.deferred
    else Queue.push task t.runnable

  let key t ~src ~dst = (src * t.ranks) + dst

  let chan t key =
    match Hashtbl.find_opt t.chans key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add t.chans key q;
        q

  let check_rank t r name =
    if r < 0 || r >= t.ranks then
      invalid_arg ("Dataflow." ^ name ^ ": bad rank")

  (* Buffered (eager) send: never blocks, matching the runtimes the
     program targets. A receiver waiting on this channel becomes runnable
     again (FIFO, so the wake order is deterministic). *)
  let send t ~src ~dst m =
    check_rank t src "send";
    check_rank t dst "send";
    let key = key t ~src ~dst in
    Queue.push m (chan t key);
    t.messages <- t.messages + 1;
    match Hashtbl.find_opt t.waiting key with
    | Some k ->
        Hashtbl.remove t.waiting key;
        enqueue t dst (Resume (dst, k))
    | None -> ()

  (* Blocking receive: suspend the fiber until the channel is non-empty.
     Only callable from inside a fiber run by [exec]. *)
  let recv t ~rank ~src =
    check_rank t rank "recv";
    check_rank t src "recv";
    let q = chan t (key t ~src ~dst:rank) in
    if Queue.is_empty q then begin
      t.status.(rank) <- Blocked_recv src;
      Effect.perform (Block_recv (key t ~src ~dst:rank));
      t.status.(rank) <- Running
    end;
    t.received <- t.received + 1;
    Queue.pop q

  (* Full synchronization: park until every rank has arrived, then release
     all arrivals in order. Every rank must call the same number of
     times. *)
  let barrier t ~rank =
    check_rank t rank "barrier";
    t.status.(rank) <- Blocked_coll;
    Effect.perform Block_coll;
    t.status.(rank) <- Running

  let start_fiber t rank =
    let open Effect.Deep in
    t.status.(rank) <- Running;
    match_with
      (fun () ->
        (* The try frame lives on the fiber's own stack, so it still
           catches a kill raised after the fiber was suspended and
           resumed. *)
        try t.program rank
        with Perturb.Model.Killed { rank; _ } -> t.failed.(rank) <- true)
      ()
      {
        retc =
          (fun () ->
            if t.failed.(rank) then t.status.(rank) <- Failed
            else begin
              t.status.(rank) <- Finished;
              t.finished <- t.finished + 1
            end);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Block_recv key ->
                Some
                  (fun (k : (a, _) continuation) ->
                    Hashtbl.replace t.waiting key k)
            | Block_coll ->
                Some
                  (fun (k : (a, _) continuation) ->
                    Queue.push (rank, k) t.coll_parked;
                    t.coll_count <- t.coll_count + 1;
                    if t.coll_count = t.ranks then begin
                      t.coll_count <- 0;
                      Queue.iter
                        (fun (r, k) -> enqueue t r (Resume (r, k)))
                        t.coll_parked;
                      Queue.clear t.coll_parked
                    end)
            | _ -> None);
      }

  let exec t program =
    if t.executed then invalid_arg "Dataflow.exec: already executed";
    t.executed <- true;
    t.program <- program;
    for rank = 0 to t.ranks - 1 do
      enqueue t rank (Start rank)
    done;
    while not (Queue.is_empty t.runnable && Queue.is_empty t.deferred) do
      let task =
        if Queue.is_empty t.runnable then Queue.pop t.deferred
        else Queue.pop t.runnable
      in
      match task with
      | Start rank -> start_fiber t rank
      | Resume (_, k) -> Effect.Deep.continue k ()
    done

  let blocked t =
    let acc = ref [] in
    for rank = t.ranks - 1 downto 0 do
      match t.status.(rank) with
      | Blocked_recv src ->
          acc := (rank, Fmt.str "blocked receiving from rank %d" src) :: !acc
      | Blocked_coll ->
          acc := (rank, "blocked in a collective") :: !acc
      | Idle -> acc := (rank, "never ran") :: !acc
      | Running | Finished | Failed -> ()
    done;
    !acc

  let failed_ranks t =
    let acc = ref [] in
    for rank = t.ranks - 1 downto 0 do
      if t.failed.(rank) then acc := rank :: !acc
    done;
    !acc

  let outcome t =
    {
      ranks = t.ranks;
      completed = t.finished = t.ranks;
      blocked = blocked t;
      failed = failed_ranks t;
      recovered = [];
      messages = t.messages;
      orphaned = t.messages - t.received;
      mismatches = [];
    }
end

(* --- The substrate over the raw scheduler --- *)

type t = {
  sched : Raw.sched;
  msg_ew : int;
  msg_ns : int;
  model : Perturb.Model.t option;
  mutable mismatches : string list;  (* reversed; capped *)
  mutable n_mismatch : int;
}

let mismatch_cap = 16

let create ?perturb ?recover ~ranks ~msg_ew ~msg_ns () =
  let sched = Raw.create ~ranks in
  let model = Perturb.Model.create ?perturb ?recover ~ranks () in
  (match model with
  | None -> ()
  | Some m ->
      for rank = 0 to ranks - 1 do
        if Perturb.Model.is_straggler m ~rank then
          Raw.set_straggler sched rank
      done);
  {
    sched;
    msg_ew;
    msg_ns;
    model;
    mismatches = [];
    n_mismatch = 0;
  }

let of_app ?perturb ?recover pg app =
  create ?perturb ?recover ~ranks:(Proc_grid.cores pg)
    ~msg_ew:(Wavefront_core.App_params.message_size_ew app pg)
    ~msg_ns:(Wavefront_core.App_params.message_size_ns app pg)
    ()

let record_mismatch t fmt =
  Fmt.kstr
    (fun m ->
      t.n_mismatch <- t.n_mismatch + 1;
      if t.n_mismatch <= mismatch_cap then t.mismatches <- m :: t.mismatches)
    fmt

module Substrate = struct
  type nonrec t = t
  type payload = msg

  let boundary _ ~rank:_ ~axis ~h:_ = { axis; tile = -1; bytes = 0 }

  (* Receive and check the face description against what the program
     expects: a mismatch means two ranks disagree about which message
     travels on an edge of the precedence graph. *)
  let recv t ~rank ~src ~axis ~tile ~h:_ ~bytes =
    let m = Raw.recv t.sched ~rank ~src in
    if m.axis <> axis || m.tile <> tile || m.bytes <> bytes then
      record_mismatch t
        "rank %d <- %d: expected %s face of tile %d (%dB), got %s tile %d \
         (%dB)"
        rank src (Substrate.axis_name axis) tile bytes
        (Substrate.axis_name m.axis) m.tile m.bytes;
    m

  let send t ~rank ~dst ~axis:_ ~tile:_ m = Raw.send t.sched ~src:rank ~dst m

  (* A spec'd kill: under a recovery policy the rank is revived in place
     (the wavefront DAG makes rollback local, so the precedence graph is
     unchanged and recovery is pure bookkeeping, its delays unspent);
     without one its fiber ends here. *)
  let compute t ~rank ~dir:_ ~tile ~h:_ ~x:_ ~y:_ =
    (match t.model with
    | None -> ()
    | Some m ->
        Perturb.Model.before_compute m ~rank ~tile ~wave_cost:0.0 (fun _ _ ->
            ()));
    ( { axis = Substrate.X; tile; bytes = t.msg_ew },
      { axis = Substrate.Y; tile; bytes = t.msg_ns } )

  let precompute _ ~rank:_ ~tile:_ = ()
  let sweep_begin _ ~rank:_ ~sweep:_ ~dir:_ = ()
  let tile_begin _ ~rank:_ ~iteration:_ ~sweep:_ ~tile:_ ~wave:_ = ()
  let local_work _ ~rank:_ _ = ()

  let halo t ~rank ~dst ~src ~bytes =
    if dst >= 0 then
      Raw.send t.sched ~src:rank ~dst { axis = Substrate.X; tile = -1; bytes };
    if src >= 0 then ignore (Raw.recv t.sched ~rank ~src)

  (* All-reduces synchronize every rank; their internal message pattern is
     a backend choice, so here each one is simply a full barrier of the
     precedence graph. *)
  let allreduce t ~rank ~count ~msg_size:_ =
    for _ = 1 to count do
      Raw.barrier t.sched ~rank
    done

  let finish _ ~rank:_ = ()
end

let exec t program = Raw.exec t.sched program

let outcome t =
  {
    (Raw.outcome t.sched) with
    mismatches = List.rev t.mismatches;
    recovered = Option.fold ~none:[] ~some:Perturb.Model.recovered t.model;
  }

let run ?iterations ?tiling ?perturb ?recover pg app =
  let cfg = Program.of_app ?iterations ?tiling pg app in
  let t = of_app ?perturb ?recover pg app in
  exec t (fun rank -> Program.run_rank (module Substrate) t cfg rank);
  outcome t
