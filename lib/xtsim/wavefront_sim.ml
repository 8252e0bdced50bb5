(* The simulated-machine substrate and the classic entry point around it.

   The Figure-4 rank program itself lives in Wrun.Program — written once,
   against the substrate interface — and this module supplies what varies
   on the simulated machine: payloads are byte sizes, sends and receives
   cost what the LogGP-calibrated Mpi_sim charges, computes advance the
   simulated clock by the model's Wg work, and every step is attributed to
   per-rank compute/comm/wait totals and (optionally) tracer spans stamped
   in simulated time. The sweep precedence behaviour of Figure 2
   (Follow/Diagonal/Full gating) is not programmed anywhere — it emerges
   from the blocking communication and the per-sweep origins, exactly as
   it does in the real codes the paper models.

   Beyond the model's assumptions, the simulator can inject effects the
   closed forms ignore, for robustness studies:
   - [balanced]: per-rank work from the integer block decomposition instead
     of the model's uniform real-valued Nx/n * Ny/m (load imbalance on
     non-divisible grids);
   - [noise]: multiplicative per-tile compute jitter from a deterministic
     per-rank RNG (OS noise / cache variability);
   - [perturb]: a full Perturb.Spec — one-sided seeded compute noise, link
     injection delays, permanent stragglers and rank failures — the same
     spec the real runtime and the batched engine accept (including the
     wave-indexed idle-wave scenarios: pulse, periodic, collective noise).
     Perturb.Model decides every delay; this module only spends them,
     advancing the simulated clock as dedicated events tagged with the
     model's span names, so critical-path reports show where delay was
     absorbed vs propagated. A killed rank's fiber stops (its sends never
     happen); downstream ranks block forever and the run completes with
     [completed = false] and the dead ranks in [failed] — the simulated
     analogue of the real runtime's Rank_failure degradation. *)

open Wgrid
open Wavefront_core

type noise = { amplitude : float; seed : int }

type rank_stats = {
  compute : float;  (** time spent computing, us *)
  comm : float;  (** time spent inside send/recv calls (incl. blocking) *)
  wait : float;
      (** the part of [comm] in excess of the uncontended cost of each
          operation: blocking on upstream progress, rendezvous stalls, bus
          queueing *)
  finish : float;  (** completion time of the rank's program *)
}

type outcome = {
  elapsed : float;  (** simulated time for the run, us *)
  per_iteration : float;
  iterations : int;
  completed : bool;  (** all ranks finished (false indicates deadlock) *)
  failed : int list;  (** ranks killed by the perturbation spec, ascending *)
  recovered : int list;
      (** ranks that died but were restored from a checkpoint, ascending
          (empty unless a recovery policy is active) *)
  checkpoints : int;  (** snapshots taken across all ranks *)
  events : int;
  sends : int;
  stats : rank_stats array;
}

let compute_total o =
  Array.fold_left (fun a s -> a +. s.compute) 0.0 o.stats

(* The communication share of the last-finishing rank: the executable
   analogue of the model's critical-path communication component
   (Figure 11). Waiting inside a blocking receive counts as communication,
   as it does on the model's critical path. *)
let comm_share o =
  let last =
    Array.fold_left
      (fun best s -> if s.finish > best.finish then s else best)
      o.stats.(0) o.stats
  in
  last.comm /. (last.comm +. last.compute)

(* A rough event-count estimate before committing to a big simulation:
   each rank executes ~6 events per tile per sweep (two receives, compute,
   two sends, scheduling). *)
let estimated_events (machine : Machine.t) (app : App_params.t) ~iterations =
  let cores = Proc_grid.cores machine.pgrid in
  let ntiles = Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile in
  let nsweeps = Sweeps.Schedule.nsweeps app.schedule in
  cores * ntiles * nsweeps * 6 * iterations

(* The event-driven engine materializes a fiber and a continuous stream
   of heap events per rank; past a few tens of thousands of ranks that
   stops failing gracefully (minutes of wall clock, then the allocator).
   Refuse structurally instead of dying with a flat [Out_of_memory]
   mid-run — the batched engine covers those sizes. *)
let default_max_ranks = 65536

exception
  Rank_ceiling of { ranks : int; max_ranks : int; estimated_events : int }

let () =
  Printexc.register_printer (function
    | Rank_ceiling { ranks; max_ranks; estimated_events } ->
        Some
          (Printf.sprintf
             "Wavefront_sim.Rank_ceiling: %d ranks exceeds the \
              event-driven engine's ceiling of %d (~%d events); use the \
              wave-batched engine (--engine=batched) for this size, or \
              raise the ceiling explicitly (--max-ranks / ~max_ranks)"
             ranks max_ranks estimated_events)
    | _ -> None)

module Backend = struct
  type t = {
    engine : Engine.t;
    mpi : Mpi_sim.t;
    coll : Collective.ctx;
    machine : Machine.t;
    msg_ew : int;
    msg_ns : int;
    work : (float * float) array;  (* per-rank (w, w_pre) *)
    jitter : (unit -> float) array;
    ntiles : int;
    sweep : int array;  (* per-rank current sweep, for wave tagging *)
    model : Perturb.Model.t option;
    compute : float array;
    comm : float array;
    waits : float array;
    finish : float array;
    done_flags : bool array;
    failed_flags : bool array;
    obs : Obs.Tracer.t option;
  }

  let create ?(balanced = false) ?noise ?perturb ?recover ?trace ?obs
      ?metrics engine (machine : Machine.t) (app : App_params.t) =
    let pg = machine.pgrid in
    let cores = Proc_grid.cores pg in
    (* Per-rank tile work: uniform (the model's view) or from the integer
       block decomposition. *)
    let work_of rank =
      let cells =
        if balanced then begin
          let i, j = Proc_grid.coords pg rank in
          let bx =
            Decomp.block_of ~cells:app.grid.nx ~parts:pg.cols ~index:(i - 1)
          in
          let by =
            Decomp.block_of ~cells:app.grid.ny ~parts:pg.rows ~index:(j - 1)
          in
          app.htile *. float_of_int (bx * by)
        end
        else Decomp.cells_per_tile app.grid pg ~htile:app.htile
      in
      (app.wg *. cells, app.wg_pre *. cells)
    in
    let jitter_of rank =
      match noise with
      | None -> fun () -> 1.0
      | Some { amplitude; seed } ->
          let state = Random.State.make [| seed; rank |] in
          fun () ->
            1.0 +. (amplitude *. ((2.0 *. Random.State.float state 1.0) -. 1.0))
    in
    {
      engine;
      mpi = Mpi_sim.create ?trace ?metrics engine machine;
      coll = Collective.ctx engine machine;
      machine;
      msg_ew = App_params.message_size_ew app pg;
      msg_ns = App_params.message_size_ns app pg;
      work = Array.init cores work_of;
      jitter = Array.init cores jitter_of;
      ntiles = Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile;
      sweep = Array.make cores 0;
      model = Perturb.Model.create ?perturb ?recover ~ranks:cores ();
      compute = Array.make cores 0.0;
      comm = Array.make cores 0.0;
      waits = Array.make cores 0.0;
      finish = Array.make cores 0.0;
      done_flags = Array.make cores false;
      failed_flags = Array.make cores false;
      obs;
    }

  (* Structured tracing: spans are stamped in simulated time. The [args]
     thunk is only forced when a tracer is attached, so the disabled path
     costs one option check and no allocation. *)
  let emit t name cat rank ~start ~args =
    match t.obs with
    | None -> ()
    | Some tr ->
        Obs.Tracer.record tr ~cat ~args:(args ()) ~rank ~start
          ~dur:(Engine.now t.engine -. start)
          name

  let no_args () = []

  (* [pure] is the uncontended model cost of the operation; anything beyond
     it is blocking/queueing wait. Operations with no closed-form cost
     (collectives, halo rounds) pass no [pure] and count fully as comm. *)
  let timed_comm ?pure ?(name = "comm") ?(args = no_args) t rank f =
    let t0 = Engine.now t.engine in
    f ();
    let d = Engine.now t.engine -. t0 in
    t.comm.(rank) <- t.comm.(rank) +. d;
    (match pure with
    | Some p -> t.waits.(rank) <- t.waits.(rank) +. Float.max 0.0 (d -. p)
    | None -> ());
    match t.obs with
    | None -> ()
    | Some tr ->
        let wait =
          match pure with Some p -> Float.max 0.0 (d -. p) | None -> d
        in
        Obs.Tracer.record tr ~cat:"comm"
          ~args:(("wait", Obs.Span.Float wait) :: args ())
          ~rank ~start:t0 ~dur:d name

  let locality_for t rank other =
    Machine.locality t.machine ~src:rank ~dst:other

  let pure_send t rank dst size =
    Loggp.Comm_model.send t.machine.platform (locality_for t rank dst) size

  let pure_recv t rank src size =
    Loggp.Comm_model.receive t.machine.platform (locality_for t rank src) size

  let timed_compute ?(name = "compute") ?(args = no_args) t rank d =
    if d > 0.0 then begin
      let t0 = Engine.now t.engine in
      Engine.wait d;
      t.compute.(rank) <- t.compute.(rank) +. d;
      emit t name "compute" rank ~start:t0 ~args
    end

  (* An injected delay advances the simulated clock as its own span:
     the compute-side clauses count as compute, link and collective
     stalls as comm, and the recovery protocol (checkpointing, restart,
     replayed waves) as neither — it is the overhead the closed-form
     recovery term predicts. *)
  let spend t rank args (kind : Perturb.Model.kind) d =
    let name = Perturb.Model.span_name kind in
    match kind with
    | Noise | Straggler | Pulse | Periodic ->
        timed_compute ~name ~args t rank d
    | Link | Collnoise ->
        timed_comm ~name ~args t rank (fun () -> Engine.wait d)
    | Checkpoint | Restart | Replay ->
        let t0 = Engine.now t.engine in
        Engine.wait d;
        emit t name "recover" rank ~start:t0 ~args

  (* Wave tagging for the timeline: spans inside the tile loop carry
     [wave = sweep * ntiles + tile]; everything outside it (collectives,
     halos, fixed work) is tagged epilogue. *)
  let wave_of t rank tile =
    (Obs.Timeline.wave_arg, Obs.Span.Int ((t.sweep.(rank) * t.ntiles) + tile))

  let epilogue_tag =
    (Obs.Timeline.wave_arg, Obs.Span.Int Obs.Timeline.epilogue_wave)

  let epilogue_args () = [ epilogue_tag ]

  (* The substrate: payloads are byte sizes, the messages' contents being
     the model's business rather than the simulator's. The per-tile [recv]
     and [send] span directions are fixed compass labels per axis ("W"/"N"
     upstream, "E"/"S" downstream), as the historical program emitted. *)
  module Substrate = struct
    type nonrec t = t
    type payload = int

    let boundary _ ~rank:_ ~axis:_ ~h:_ = 0

    let recv t ~rank ~src ~axis ~tile ~h:_ ~bytes =
      timed_comm
        ~pure:(pure_recv t rank src bytes)
        ~name:"recv"
        ~args:(fun () ->
          [ ("src", Obs.Span.Int src); ("size", Int bytes);
            ("dir", Str (match axis with Wrun.Substrate.X -> "W" | Y -> "N"));
            wave_of t rank tile;
          ])
        t rank
        (fun () -> Mpi_sim.recv t.mpi ~dst:rank ~src ~size:bytes);
      bytes

    (* Link contention is spent before the send enters the network, so
       downstream receivers see the message later. *)
    let send t ~rank ~dst ~axis ~tile bytes =
      (match t.model with
      | None -> ()
      | Some m ->
          Perturb.Model.before_send m ~rank
            (spend t rank (fun () -> [ wave_of t rank tile ])));
      timed_comm
        ~pure:(pure_send t rank dst bytes)
        ~name:"send"
        ~args:(fun () ->
          [ ("dst", Obs.Span.Int dst); ("size", Int bytes);
            ("dir", Str (match axis with Wrun.Substrate.X -> "E" | Y -> "S"));
            wave_of t rank tile;
          ])
        t rank
        (fun () -> Mpi_sim.send t.mpi ~src:rank ~dst ~size:bytes)

    (* Figure 4: LU pre-computes part of the domain before the receives;
       Sweep3D and Chimaera have Wg_pre = 0 (the jitter stream is still
       consumed so noise draws stay aligned per tile). *)
    let precompute t ~rank ~tile =
      let _, w_pre = t.work.(rank) in
      timed_compute ~name:"precompute"
        ~args:(fun () -> [ wave_of t rank tile ])
        t rank
        (w_pre *. t.jitter.(rank) ())

    (* A kill under a recovery policy is survived in simulated time:
       the restart and the replay of the lost waves are charged before
       this very tile's work. *)
    let compute t ~rank ~dir:_ ~tile ~h:_ ~x:_ ~y:_ =
      let args () = [ wave_of t rank tile ] in
      let w, w_pre = t.work.(rank) in
      (match t.model with
      | None -> ()
      | Some m ->
          Perturb.Model.before_compute m ~rank ~tile ~wave_cost:(w +. w_pre)
            (spend t rank args));
      timed_compute ~args t rank (w *. t.jitter.(rank) ());
      (match t.model with
      | None -> ()
      | Some m ->
          Perturb.Model.after_compute m ~rank ~work:w (spend t rank args));
      (t.msg_ew, t.msg_ns)

    let sweep_begin t ~rank ~sweep ~dir:_ = t.sweep.(rank) <- sweep

    (* The checkpoint anchor: the modeled snapshot cost is charged
       before the tile's work. A no-op without a policy, so the zero
       config stays bitwise invisible. *)
    let tile_begin t ~rank ~iteration:_ ~sweep:_ ~tile ~wave =
      match t.model with
      | None -> ()
      | Some m ->
          Perturb.Model.tile_begin m ~rank ~wave
            (spend t rank (fun () -> [ wave_of t rank tile ]))

    let local_work t ~rank us = timed_compute ~args:epilogue_args t rank us

    let halo t ~rank ~dst ~src ~bytes =
      timed_comm ~name:"halo" ~args:epilogue_args t rank (fun () ->
          if dst >= 0 then Mpi_sim.send t.mpi ~src:rank ~dst ~size:bytes;
          if src >= 0 then Mpi_sim.recv t.mpi ~dst:rank ~src ~size:bytes)

    (* Collective noise: a seeded stall before the rank enters the
       all-reduce, the classic desynchronization source of the idle-wave
       literature. *)
    let allreduce t ~rank ~count ~msg_size =
      (match t.model with
      | None -> ()
      | Some m ->
          Perturb.Model.before_allreduce m ~rank (spend t rank epilogue_args));
      timed_comm ~name:"allreduce" ~args:epilogue_args t rank (fun () ->
          for _ = 1 to count do
            Collective.allreduce t.coll t.mpi ~rank ~msg_size
          done)

    let finish t ~rank =
      t.done_flags.(rank) <- true;
      t.finish.(rank) <- Engine.now t.engine
  end
end

let run ?(iterations = 1) ?(max_ranks = default_max_ranks) ?(balanced = false)
    ?noise ?perturb ?recover ?trace ?obs ?metrics (machine : Machine.t)
    (app : App_params.t) =
  if iterations < 1 then invalid_arg "Wavefront_sim.run: iterations >= 1";
  (match noise with
  | Some n when n.amplitude < 0.0 || n.amplitude >= 1.0 ->
      invalid_arg "Wavefront_sim.run: noise amplitude must be in [0, 1)"
  | _ -> ());
  let ranks = Proc_grid.cores machine.pgrid in
  if ranks > max_ranks then
    raise
      (Rank_ceiling
         {
           ranks;
           max_ranks;
           estimated_events = estimated_events machine app ~iterations;
         });
  let pg = machine.pgrid in
  let engine = Engine.create () in
  let b =
    Backend.create ~balanced ?noise ?perturb ?recover ?trace ?obs ?metrics
      engine machine app
  in
  let cfg = Wrun.Program.of_app ~iterations pg app in
  let cores = Proc_grid.cores pg in
  for rank = 0 to cores - 1 do
    (* A spec-killed rank ends its fiber quietly: its remaining sends never
       happen, so downstream ranks stay suspended and are abandoned when
       the event queue drains — exactly a crashed node as its neighbours
       see it. *)
    Engine.spawn engine (fun () ->
        try Wrun.Program.run_rank (module Backend.Substrate) b cfg rank
        with Perturb.Model.Killed { rank; _ } -> b.failed_flags.(rank) <- true)
  done;
  let elapsed = Engine.run engine in
  (* Cross-rank distributions of where time went, plus run totals, for the
     profiling report. *)
  (match metrics with
  | None -> ()
  | Some m ->
      let h name arr =
        let hist = Obs.Metrics.histogram m name in
        Array.iter (Obs.Metrics.observe hist) arr
      in
      h "sim.rank.compute" b.compute;
      h "sim.rank.comm" b.comm;
      h "sim.rank.wait" b.waits;
      Obs.Metrics.set (Obs.Metrics.gauge m "sim.elapsed") elapsed;
      Obs.Metrics.inc ~by:(Engine.events_executed engine)
        (Obs.Metrics.counter m "sim.events");
      Obs.Metrics.inc ~by:(Mpi_sim.sends b.mpi)
        (Obs.Metrics.counter m "sim.sends"));
  {
    elapsed;
    per_iteration = elapsed /. float_of_int iterations;
    iterations;
    completed = Array.for_all Fun.id b.done_flags;
    failed =
      Array.to_list
        (Array.mapi (fun r f -> if f then Some r else None) b.failed_flags)
      |> List.filter_map Fun.id;
    recovered = Option.fold ~none:[] ~some:Perturb.Model.recovered b.model;
    checkpoints = Option.fold ~none:0 ~some:Perturb.Model.checkpoints b.model;
    events = Engine.events_executed engine;
    sends = Mpi_sim.sends b.mpi;
    stats =
      Array.init cores (fun r ->
          { compute = b.compute.(r); comm = b.comm.(r); wait = b.waits.(r);
            finish = b.finish.(r) });
  }

let pp_outcome ppf o =
  Fmt.pf ppf "elapsed %a (%d iteration(s), %s), %d events, %d sends"
    Units.pp_time o.elapsed o.iterations
    (match (o.completed, o.failed) with
    | true, _ ->
        if o.recovered = [] then "completed"
        else
          Fmt.str "completed, rank(s) %s recovered"
            (String.concat ", " (List.map string_of_int o.recovered))
    | false, [] -> "DEADLOCKED"
    | false, failed ->
        Fmt.str "DEGRADED: rank(s) %s killed"
          (String.concat ", " (List.map string_of_int failed)))
    o.events o.sends
