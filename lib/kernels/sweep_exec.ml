(* Real distributed wavefront sweeps: the transport kernel running over a
   2-D decomposition on the shared-memory message-passing runtime. The
   per-tile receive/compute/send loop itself is the one substrate-agnostic
   program of Wrun.Program (paper Figure 4); this module is the substrate
   that makes its payloads real — boundary faces computed by
   Transport.sweep_tile, carried between domains by Shmpi.Comm. The
   distributed result must equal the sequential reference bitwise — each
   cell sees the same inputs in the same operation order — which the test
   suite checks. *)

open Wgrid
open Wavefront_core

type plan = {
  grid : Data_grid.t;
  pg : Proc_grid.t;
  config : Transport.config;
  htile : int;
  schedule : Sweeps.Schedule.t;
  nonwavefront : App_params.nonwavefront;
  iterations : int;
  perturb : Perturb.Spec.t option;
}

(* The default non-wavefront section is the end-of-iteration reduction the
   transport benchmarks perform: one all-reduce of each rank's scalar-flux
   sum. *)
let plan ?(config = Transport.default) ?(htile = 1) ?(iterations = 1)
    ?(schedule = Sweeps.Schedule.sweep3d)
    ?(nonwavefront = App_params.Allreduce { count = 1; msg_size = 8 }) ?perturb
    grid pg =
  if htile < 1 then invalid_arg "Sweep_exec.plan: htile must be >= 1";
  if iterations < 1 then invalid_arg "Sweep_exec.plan: iterations must be >= 1";
  { grid; pg; config; htile; schedule; nonwavefront; iterations; perturb }

(* Block extents and offsets of processor (i, j) (1-based). *)
let block_x plan i =
  Decomp.block_of ~cells:plan.grid.nx ~parts:plan.pg.cols ~index:(i - 1)

let block_y plan j =
  Decomp.block_of ~cells:plan.grid.ny ~parts:plan.pg.rows ~index:(j - 1)

let offset_x plan i =
  Decomp.offset_of ~cells:plan.grid.nx ~parts:plan.pg.cols ~index:(i - 1)

let offset_y plan j =
  Decomp.offset_of ~cells:plan.grid.ny ~parts:plan.pg.rows ~index:(j - 1)

(* The program configuration handed to the shared core: kernel tiling (h =
   min htile (nz - t*htile)) and the honest byte sizes of the faces the
   backend actually ships (8-byte floats, angles values per boundary
   cell). *)
let program_config plan =
  let angles = plan.config.Transport.angles in
  let face extent =
    Decomp.message_size
      ~bytes_per_cell:(8.0 *. float_of_int angles)
      ~htile:(float_of_int plan.htile) ~extent
  in
  Wrun.Program.v ~iterations:plan.iterations
    ~tiling:(Wrun.Program.tiling_int ~nz:plan.grid.nz ~htile:plan.htile)
    ~pg:plan.pg ~grid:plan.grid ~schedule:plan.schedule
    ~nonwavefront:plan.nonwavefront
    ~msg_ew:(face (Decomp.cells_y plan.grid plan.pg))
    ~msg_ns:(face (Decomp.cells_x plan.grid plan.pg))
    ~htile:(float_of_int plan.htile) ()

(* Genuine elapsed work for the non-wavefront section's local work (a
   fixed cost, the stencil compute): this substrate is the real machine,
   so a cost in microseconds is spent, not accounted. *)
let busy_wait us =
  if us > 0.0 then begin
    let stop = Unix.gettimeofday () +. (us *. 1e-6) in
    while Unix.gettimeofday () < stop do
      ()
    done
  end

module Backend = struct
  (* This rank's view of the recovery protocol. [version] numbers its
     snapshots; [pending] is a restored tile-to-tile sweep mark the next
     [sweep_begin] must re-apply (the resumed sweep's carried z-face);
     [wave] tracks the current global wave, so the retry loop can report
     the rollback depth. *)
  type recovering = {
    policy : Perturb.Recover.policy;
    store : Wrun.Checkpoint.store;
    mutable version : int;
    mutable pending : Transport.sweep_mark option;
    mutable wave : int;
  }

  type t = {
    plan : plan;
    comm : Shmpi.Comm.t;
    nx : int;  (* local block extents of this rank *)
    ny : int;
    phi : float array;
    mutable st : Transport.sweep_state option;
    (* Full-height receive buffers, reused every tile; a short last tile
       falls back to the channel's own buffer (Channel.recv_into). *)
    buf_x : float array;
    buf_y : float array;
    (* Perturbation state: one model shared by all ranks (each rank only
       touches its own streams), this rank's tracer for tagging injected
       delay, and a shared tiles-completed counter array for the frontier
       a degraded run reports. *)
    model : Perturb.Model.t option;
    tracer : Obs.Tracer.t option;
    progress : int array option;
    recover : recovering option;
    (* Wave tagging for the timeline: the tile loop's compute spans carry
       [wave = sweep * ntiles + tile]; the untagged Comm spans around them
       are assigned by Obs.Timeline's anchor heuristic. *)
    ntiles : int;
    mutable sweep : int;
  }

  let create ?model ?tracer ?progress ?recover plan comm rank =
    let i, j = Proc_grid.coords plan.pg rank in
    let nx = block_x plan i and ny = block_y plan j in
    let a_n = plan.config.Transport.angles in
    {
      plan;
      comm;
      nx;
      ny;
      phi = Array.make (nx * ny * plan.grid.nz) 0.0;
      st = None;
      buf_x = Array.make (a_n * ny * plan.htile) 0.0;
      buf_y = Array.make (a_n * nx * plan.htile) 0.0;
      model;
      tracer;
      progress;
      recover =
        Option.map
          (fun (policy, store) ->
            {
              policy;
              store;
              version = 0;
              pending = None;
              wave = 0;
            })
          recover;
      ntiles = (plan.grid.nz + plan.htile - 1) / plan.htile;
      sweep = 0;
    }

  let phi t = t.phi

  (* Spend an injected delay for real — a perturbed rank is genuinely
     occupied, like [local_work] — and tag it so critical-path reports can
     tell absorbed delay from propagated. *)
  let spend t ~rank kind us =
    match t.tracer with
    | None -> busy_wait us
    | Some tr ->
        Obs.Tracer.span tr ~cat:"perturb" ~rank
          (Perturb.Model.span_name kind)
          (fun () -> busy_wait us)

  module Substrate = struct
    type nonrec t = t
    type payload = float array

    let boundary t ~rank:_ ~axis ~h =
      match axis with
      | Wrun.Substrate.X -> Transport.boundary_x t.plan.config ~ny:t.ny ~h
      | Y -> Transport.boundary_y t.plan.config ~nx:t.nx ~h

    let recv t ~rank ~src ~axis ~tile:_ ~h:_ ~bytes:_ =
      let buf =
        match axis with Wrun.Substrate.X -> t.buf_x | Y -> t.buf_y
      in
      Shmpi.Comm.recv_into t.comm ~dst:rank ~src buf

    let send t ~rank ~dst ~axis:_ ~tile:_ face =
      (match t.model with
      | None -> ()
      | Some m -> Perturb.Model.before_send m ~rank (spend t ~rank));
      Shmpi.Comm.send t.comm ~src:rank ~dst face

    let sweep_begin t ~rank:_ ~sweep ~dir =
      t.sweep <- sweep;
      let st =
        Transport.sweep_start t.plan.config ~nx:t.nx ~ny:t.ny
          ~nz:t.plan.grid.nz ~dir ~phi:t.phi
      in
      t.st <- Some st;
      (* A rank resuming from a checkpoint re-enters mid-sweep: the fresh
         sweep state starts from the inflow boundary, so re-apply the
         snapshot's carried z-face before any tile runs. Only the first
         sweep_begin after a restore has a pending mark. *)
      match t.recover with
      | Some ({ pending = Some mark; _ } as rc) ->
          Transport.sweep_restore st mark;
          rc.pending <- None
      | _ -> ()

    (* The checkpoint anchor. When the policy says wave [wave] is due,
       snapshot everything the tile loop carries — accumulated phi, the
       sweep's tile-to-tile state (z-face + plane cursor), and the channel
       marks — then release the senders' logs the snapshot covers. *)
    let tile_begin t ~rank ~iteration ~sweep ~tile ~wave =
      match t.recover with
      | None -> ()
      | Some rc ->
          rc.wave <- wave;
          if Perturb.Recover.due ~interval:rc.policy.interval ~wave then begin
            let save () =
              let mark =
                match t.st with
                | Some st -> Transport.sweep_capture st
                | None -> assert false (* sweep_begin precedes tile_begin *)
              in
              let m = Shmpi.Supervisor.marks t.comm ~rank in
              rc.version <- rc.version + 1;
              Wrun.Checkpoint.save rc.store
                {
                  rank;
                  version = rc.version;
                  wave;
                  position = { iteration; sweep; tile };
                  phi = Array.copy t.phi;
                  zbuf = Transport.mark_zbuf mark;
                  zpos = Transport.mark_pos mark;
                  sent = m.Shmpi.Supervisor.sent;
                  recvd = m.Shmpi.Supervisor.recvd;
                };
              Shmpi.Supervisor.release t.comm ~rank m
            in
            match t.tracer with
            | None -> save ()
            | Some tr ->
                Obs.Tracer.span tr ~cat:"recover"
                  ~args:[ (Obs.Timeline.wave_arg, Obs.Span.Int wave) ]
                  ~rank
                  (Perturb.Model.span_name Checkpoint)
                  save
          end

    let precompute _ ~rank:_ ~tile:_ = ()

    (* The kernel call itself, as a wave-tagged compute span (injected
       perturbation delays stay outside it, under their own names). *)
    let tile_kernel t ~rank ~tile st ~h ~x ~y =
      match t.tracer with
      | None -> Transport.sweep_tile st ~h ~xface:x ~yface:y
      | Some tr ->
          Obs.Tracer.span tr ~cat:"compute"
            ~args:
              [
                ( Obs.Timeline.wave_arg,
                  Obs.Span.Int ((t.sweep * t.ntiles) + tile) );
              ]
            ~rank "compute"
            (fun () -> Transport.sweep_tile st ~h ~xface:x ~yface:y)

    let compute t ~rank ~dir:_ ~tile ~h ~x ~y =
      let faces =
        match (t.st, t.model) with
        | None, _ -> assert false (* sweep_begin precedes every tile *)
        | Some st, None -> tile_kernel t ~rank ~tile st ~h ~x ~y
        | Some st, Some m ->
            (* The model has no recovery policy here: a kill raises
               [Killed] for the supervisor to roll back. Noise scales with
               the tile's measured duration — the real analogue of the
               simulator scaling the model's tile work. The draws line up
               one per tile either way. *)
            Perturb.Model.before_compute m ~rank ~tile ~wave_cost:0.0
              (spend t ~rank);
            let t0 = Unix.gettimeofday () in
            let faces = tile_kernel t ~rank ~tile st ~h ~x ~y in
            let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
            Perturb.Model.after_compute m ~rank ~work:dt (spend t ~rank);
            faces
      in
      (match t.progress with
      | Some p -> p.(rank) <- p.(rank) + 1
      | None -> ());
      faces

    let local_work _ ~rank:_ us = busy_wait us

    (* One direction of a halo round: the faces carry no physics here, so
       ship a zero payload of the model's byte size and discard the
       incoming one. *)
    let halo t ~rank ~dst ~src ~bytes =
      if dst >= 0 then
        Shmpi.Comm.send t.comm ~src:rank ~dst
          (Array.make (max 1 ((bytes + 7) / 8)) 0.0);
      if src >= 0 then ignore (Shmpi.Comm.recv t.comm ~dst:rank ~src)

    (* A genuine global reduction of the rank's scalar-flux sum (the
       payload real runtimes reduce between iterations); [msg_size] is the
       model's input, not this substrate's. *)
    let allreduce t ~rank ~count ~msg_size:_ =
      (* Collective noise: a real stall before the rank enters the
         reduction. *)
      (match t.model with
      | None -> ()
      | Some m -> Perturb.Model.before_allreduce m ~rank (spend t ~rank));
      for _ = 1 to count do
        ignore
          (Shmpi.Comm.allreduce t.comm ~rank ~op:( +. )
             (Array.fold_left ( +. ) 0.0 t.phi))
      done

    let finish _ ~rank:_ = ()
  end
end

(* The program of one rank: the shared Figure-4 core over this substrate. *)
let rank_program ?model ?obs ?progress plan =
  let cfg = program_config plan in
  fun comm rank ->
    let tracer = Option.map (fun trs -> trs.(rank)) obs in
    let b = Backend.create ?model ?tracer ?progress plan comm rank in
    Wrun.Program.run_rank (module Backend.Substrate) b cfg rank;
    b.Backend.phi

type outcome = {
  blocks : float array array;  (** per-rank phi blocks *)
  wall_time : float;  (** us *)
}

let model_of plan ~ranks = Perturb.Model.create ?perturb:plan.perturb ~ranks ()

let run ?obs ?timeout_us plan =
  let ranks = Proc_grid.cores plan.pg in
  let r =
    Shmpi.Runtime.run ?obs ?timeout_us ~ranks
      (rank_program ?model:(model_of plan ~ranks) ?obs plan)
  in
  { blocks = r.values; wall_time = r.wall_time }

type resilient_outcome =
  | Completed of outcome
  | Degraded of {
      failed : int list;
      reason : exn;
      frontier : int array;
      wall_time : float;
    }

let run_resilient ?obs ?(timeout_us = 1e6) plan =
  let ranks = Proc_grid.cores plan.pg in
  let progress = Array.make ranks 0 in
  let start = Shmpi.Runtime.now_us () in
  match
    Shmpi.Runtime.run ?obs ~timeout_us ~ranks
      (rank_program ?model:(model_of plan ~ranks) ?obs ~progress plan)
  with
  | r -> Completed { blocks = r.values; wall_time = r.wall_time }
  | exception Shmpi.Runtime.Rank_failure { failed; exn; _ } ->
      Degraded
        {
          failed;
          reason = exn;
          frontier = progress;
          wall_time = Shmpi.Runtime.now_us () -. start;
        }

type recovery_stats = {
  restarts : int;
  checkpoints : int;
  replayed_waves : int;
}

type recoverable_outcome =
  | Recovered of outcome * recovery_stats
  | Unrecovered of {
      failed : int list;
      reason : exn;
      frontier : int array;
      wall_time : float;
    }

(* Restarts per rank are capped so a model that keeps killing a rank (or a
   bug in the rollback) surfaces as Unrecovered rather than looping. One
   restart per originally-failing rank suffices in practice: [revive]
   lifts the fail-stop sentence on respawn. *)
let max_restarts = 4

(* One rank's program under supervision: run the shared core; on a
   fail-stop, revive the rank, rewind its channels to its last
   checkpoint's marks (redelivering consumed-but-uncovered messages from
   the senders' logs), restore its snapshot, and resume from the
   snapshot's position. Only this rank rolls back — see Shmpi.Supervisor.
   [restarts]/[replayed] are shared per-rank counters, each slot written
   only by its owner. *)
let recoverable_rank_program ?model ?obs ?progress ~policy ~store ~restarts
    ~replayed plan =
  let cfg = program_config plan in
  fun comm rank ->
    let tracer = Option.map (fun trs -> trs.(rank)) obs in
    let b =
      Backend.create ?model ?tracer ?progress ~recover:(policy, store) plan
        comm rank
    in
    let rc =
      match b.Backend.recover with Some rc -> rc | None -> assert false
    in
    let rec attempt from =
      match
        Wrun.Program.run_rank ?from (module Backend.Substrate) b cfg rank
      with
      | () -> b.Backend.phi
      | exception Perturb.Model.Killed _ when restarts.(rank) < max_restarts
        ->
          restarts.(rank) <- restarts.(rank) + 1;
          (match model with
          | Some m -> Perturb.Model.revive m ~rank
          | None -> ());
          let restore () =
            match Wrun.Checkpoint.latest store ~rank with
            | Some (snap : Wrun.Checkpoint.snapshot) ->
                Array.blit snap.phi 0 b.Backend.phi 0
                  (Array.length b.Backend.phi);
                rc.Backend.pending <-
                  Some (Transport.mark_of ~zbuf:snap.zbuf ~pos:snap.zpos);
                Shmpi.Supervisor.rollback comm ~rank
                  { Shmpi.Supervisor.sent = snap.sent; recvd = snap.recvd };
                replayed.(rank) <-
                  replayed.(rank) + (rc.Backend.wave - snap.wave);
                Some snap.position
            | None ->
                (* Died before its first checkpoint: respawn from scratch.
                   This rank never released anything, so the full logs
                   replay from message zero. *)
                Array.fill b.Backend.phi 0 (Array.length b.Backend.phi) 0.0;
                rc.Backend.pending <- None;
                Shmpi.Supervisor.rollback comm ~rank
                  {
                    Shmpi.Supervisor.sent =
                      Array.make (Shmpi.Comm.ranks comm) 0;
                    recvd = Array.make (Shmpi.Comm.ranks comm) 0;
                  };
                replayed.(rank) <- replayed.(rank) + rc.Backend.wave;
                None
          in
          let from =
            match tracer with
            | None -> restore ()
            | Some tr ->
                Obs.Tracer.span tr ~cat:"recover" ~rank
                  (Perturb.Model.span_name Restart)
                  restore
          in
          attempt from
    in
    attempt None

let run_recoverable ?obs ?(timeout_us = 1e6) ?store ~policy plan =
  if not (Perturb.Recover.enabled policy) then
    (* A disabled policy is bitwise invisible: the plain resilient path,
       no message logging, no hooks armed. *)
    match run_resilient ?obs ~timeout_us plan with
    | Completed o ->
        Recovered (o, { restarts = 0; checkpoints = 0; replayed_waves = 0 })
    | Degraded { failed; reason; frontier; wall_time } ->
        Unrecovered { failed; reason; frontier; wall_time }
  else begin
    let ranks = Proc_grid.cores plan.pg in
    let store =
      match store with Some s -> s | None -> Wrun.Checkpoint.memory_store ()
    in
    let progress = Array.make ranks 0 in
    let restarts = Array.make ranks 0 in
    let replayed = Array.make ranks 0 in
    let start = Shmpi.Runtime.now_us () in
    match
      Shmpi.Runtime.run ?obs ~log:true ~timeout_us ~ranks
        (recoverable_rank_program
           ?model:(model_of plan ~ranks)
           ?obs ~progress ~policy ~store ~restarts ~replayed plan)
    with
    | r ->
        Recovered
          ( { blocks = r.values; wall_time = r.wall_time },
            {
              restarts = Array.fold_left ( + ) 0 restarts;
              checkpoints = Wrun.Checkpoint.saves store;
              replayed_waves = Array.fold_left ( + ) 0 replayed;
            } )
    | exception Shmpi.Runtime.Rank_failure { failed; exn; _ } ->
        Unrecovered
          {
            failed;
            reason = exn;
            frontier = progress;
            wall_time = Shmpi.Runtime.now_us () -. start;
          }
  end

(* Assemble per-rank blocks into a global grid for comparison. *)
let gather plan blocks =
  let { Data_grid.nx; ny; nz } = plan.grid in
  let global = Array.make (nx * ny * nz) 0.0 in
  Array.iteri
    (fun rank block ->
      let i, j = Proc_grid.coords plan.pg rank in
      let bx = block_x plan i and by = block_y plan j in
      let ox = offset_x plan i and oy = offset_y plan j in
      for z = 0 to nz - 1 do
        for y = 0 to by - 1 do
          for x = 0 to bx - 1 do
            global.(((z * ny) + (oy + y)) * nx + (ox + x)) <-
              block.(((z * by) + y) * bx + x)
          done
        done
      done)
    blocks;
  global

let run_sequential plan =
  let { Data_grid.nx; ny; nz } = plan.grid in
  let phi = Array.make (nx * ny * nz) 0.0 in
  for _iter = 1 to plan.iterations do
    List.iter
      (fun sweep ->
        let dir = Wrun.Program.flow plan.pg sweep in
        Transport.sweep_sequential plan.config ~nx ~ny ~nz ~dir
          ~htile:plan.htile ~phi)
      (Sweeps.Schedule.sweeps plan.schedule)
  done;
  phi
