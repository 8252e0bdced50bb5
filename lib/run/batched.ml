(* The wave-batched backend: the Figure-4 program priced with the
   model's LogGP costs on per-rank virtual clocks, executed without
   fibers, effects or a heap of events.

   The wavefront schedule is regular enough that the precedence graph
   never has to be discovered at run time: within one sweep, a rank
   depends only on its two upstream neighbours, so the ranks of one
   anti-diagonal of the processor grid are mutually independent and the
   whole sweep is a sequence of bulk steps — advance every rank of
   diagonal d, then every rank of diagonal d+1. All state lives in flat
   preallocated structure-of-arrays: per-rank virtual clocks, per-rank
   timeline accumulators, and one LogGP delivery timestamp per
   (receiver, tile, axis) slot — a send writes the slot, the receiver
   reads it one diagonal later, and a NaN sentinel marks a message that
   was never sent (the batched reading of a blocking receive that never
   returns).

   Ranks are sharded across OCaml 5 domains stage by stage. A wavefront
   stage splits its anti-diagonal into one contiguous chunk per lane,
   of near-equal size and in ascending rank order, so every domain has
   work for as long as the diagonal has ranks to spare; an epilogue
   pass splits the ranks into contiguous row bands. There are as many
   lanes as the caller asks for domains, run on at most as many domains
   as the host has cores. Domains synchronize only at stage
   boundaries. Every rank's floats depend only on its own
   perturbation streams and upstream slot values, and collective
   release points are float maxima (associative, order-independent), so
   a run is bitwise identical across domain counts. So is its cell
   stream: chunk (or band) k of a stage — lane k — appends the cells it
   closes to lane k's flat log, and after every stage the calling
   domain hands the logs to the sink in lane order. Lanes hold
   ascending rank ranges, so the sink sees the exact order of a
   1-domain run, on one domain, and needs no lock.

   The epilogue (non-wavefront section) is a list of operations in the
   program's configuration, the same for every rank, so the engine
   resolves it op by op across all ranks, each op in banded passes:
   local work is one charging pass; a halo is an all-sends pass then an
   all-receives pass; an all-reduce releases every arrival at the
   maximum entry clock. This backend therefore implements only the
   tile-loop hooks ([Substrate.TILE_LOOP]).

   Span naming and perturbation draw order replicate the event-level
   simulator operation for operation, so with single-core nodes and the
   bus off a traced batched run reconstructs into the simulator's
   [Obs.Timeline.t] over the wavefront section. *)

open Wgrid

(* Int-only: a polymorphic min/max is a C call and would accept floats. *)
let min = Int.min
let max = Int.max

type cell_sink = Obs.Cell_batch.t -> unit

(* Raised internally when a rank reads a delivery slot that was never
   written: its upstream died (or got stuck) before sending. *)
exception Stuck_on of { rank : int; src : int }

type status = Alive | Done | Failed | Blocked_recv of int | Blocked_coll

type bucket = Bcompute | Bsend | Brecv | Bother

(* Row bands, for the epilogue passes: of [bands] domains, domain k
   owns the 0-based processor rows [k*rows/bands, (k+1)*rows/bands),
   i.e. the contiguous rank range [band_range pg ~bands k]. *)
let band_range (pg : Proc_grid.t) ~bands k =
  (k * pg.rows / bands * pg.cols, (k + 1) * pg.rows / bands * pg.cols)

type t = {
  costs : Costs.t;
  ranks : int;
  ntiles : int;
  cols : int;  (* timeline wave columns: nsweeps * ntiles *)
  msg_ew : int;
  msg_ns : int;
  faces : int * int;
      (* (msg_ew, msg_ns), preallocated: [Backend.compute] returns it
         instead of building a fresh tuple per tile, keeping the
         steady-state step allocation-free *)
  model : Perturb.Model.t option;
  tracer : Obs.Tracer.t option;
  sink : cell_sink option;
  (* --- SoA core --- *)
  clock : float array;  (* per-rank virtual now, us *)
  sweep : int array;  (* per-rank current sweep index *)
  finish : float array;  (* set at successful completion only *)
  status : status array;
  sent : int array;  (* per-rank messages sent / received *)
  rcvd : int array;
  (* Per-sweep delivery timestamps, indexed [dst * ntiles + tile]; NaN =
     never sent. Each slot has exactly one writer (the unique upstream
     neighbour) and one reader, a diagonal apart. *)
  dlv_x : float array;
  dlv_y : float array;
  (* --- hot-path LogGP cache --- *)
  (* The tile loop only ever messages grid neighbours with the axis'
     fixed face size, so the three per-message charges take two values
     per axis (link on-chip or off-node). [loc_bits] holds the on-chip
     bit of each (rank, dir) link, dir = axis2 + (0 if peer > rank else
     1) with axis2: X = 0, Y = 2; the tables are indexed
     [axis2 + onchip]. *)
  loc_bits : Bytes.t;
  c_send : float array;
  c_flight : float array;
  c_rovh : float array;
  (* Table-6 shared-bus interference per op (us), already folded into
     [c_send]/[c_rovh]; kept separately so the outcome can report the
     total interference charged. Zero when the costs table has the bus
     off — the caches are then bitwise-identical to the bus-free ones. *)
  bi_ew : float;
  bi_ns : float;
  bus_acc : float array;  (* per-rank accumulated bus interference *)
  (* --- streaming cell accumulators (active iff [sink] is set) --- *)
  (* A state is one lane's view: every field but [log] is shared by all
     lanes. Only lane k's domain appends to its [log]; only the calling
     domain drains [logs], between stages. *)
  log : Obs.Cell_batch.t;  (* the cells this lane closed in the stage *)
  logs : Obs.Cell_batch.t array;  (* every lane's log, in lane order *)
  cur_col : int array;  (* column being accumulated; -1 = none *)
  hi_col : int array;  (* highest column ever opened; -1 = none *)
  span_end : float array;  (* end of the rank's last span *)
  col_start : float array;
  acc_compute : float array;
  acc_send : float array;
  acc_recv : float array;
  acc_wait : float array;
  acc_spans : int array;
  (* --- epilogue passes --- *)
  op_t0 : float array;  (* clock at the current op's start *)
  halo_dlv : float array;
      (* per-receiver delivery slot for one halo op; NaN between ops *)
}

(* --- spans and cells --- *)

let wave t ~rank ~tile = (t.sweep.(rank) * t.ntiles) + tile

let emit t ~rank ~name ~cat ~start args =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.record tr ~cat ~args ~rank ~start
        ~dur:(t.clock.(rank) -. start) name

(* Append one finished cell to the lane's log. Inlined, so that its
   floats stay unboxed. *)
let[@inline] log_cell t ~rank ~col ~spans ~t_start ~t_end ~compute ~send
    ~recv ~wait =
  let log = t.log in
  if 3 * (log.Obs.Cell_batch.n + 1) > Array.length log.ints then
    Obs.Cell_batch.grow log;
  let i = log.n in
  log.n <- i + 1;
  let ints = log.ints and f = log.floats and o = 6 * i in
  ints.(3 * i) <- rank;
  ints.((3 * i) + 1) <- col;
  ints.((3 * i) + 2) <- spans;
  f.(o) <- t_start;
  f.(o + 1) <- t_end;
  f.(o + 2) <- compute;
  f.(o + 3) <- send;
  f.(o + 4) <- recv;
  f.(o + 5) <- wait

(* The streaming counterpart of [Obs.Timeline.of_spans] for the
   contiguous traces this backend produces: per-rank spans partition
   [start, finish] with no gaps or overlaps, so a column's window runs
   from its first span's start to the next column's first span start,
   idle is zero, and [other] is the exact remainder. One cell is closed
   per (rank, column) visit, on the transition to the next column, into
   the lane's log. Called only with a sink attached. *)
let[@inline] close_cell t ~rank ~t_end =
  let col = t.cur_col.(rank) in
  if col >= 0 then begin
    log_cell t ~rank ~col ~spans:t.acc_spans.(rank)
      ~t_start:t.col_start.(rank) ~t_end ~compute:t.acc_compute.(rank)
      ~send:t.acc_send.(rank) ~recv:t.acc_recv.(rank)
      ~wait:t.acc_wait.(rank);
    t.cur_col.(rank) <- -1;
    t.acc_compute.(rank) <- 0.0;
    t.acc_send.(rank) <- 0.0;
    t.acc_recv.(rank) <- 0.0;
    t.acc_wait.(rank) <- 0.0;
    t.acc_spans.(rank) <- 0
  end

(* Hand every lane's log to the sink, in lane order, and empty it. Runs
   on the calling domain only, between pool stages. *)
let drain t =
  match t.sink with
  | None -> ()
  | Some sink ->
      for k = 0 to Array.length t.logs - 1 do
        let log = t.logs.(k) in
        if log.n > 0 then begin
          sink log;
          log.n <- 0
        end
      done

let[@inline] cell_note t ~rank ~col ~t0 ~dur ~bucket ~wait =
  match t.sink with
  | None -> ()
  | Some _ ->
      if t.cur_col.(rank) <> col then begin
        close_cell t ~rank ~t_end:t0;
        t.cur_col.(rank) <- col;
        t.hi_col.(rank) <- max t.hi_col.(rank) col;
        t.col_start.(rank) <- t0
      end;
      (match bucket with
      | Bcompute -> t.acc_compute.(rank) <- t.acc_compute.(rank) +. dur
      | Bsend ->
          t.acc_send.(rank) <- t.acc_send.(rank) +. (dur -. wait);
          t.acc_wait.(rank) <- t.acc_wait.(rank) +. wait
      | Brecv ->
          t.acc_recv.(rank) <- t.acc_recv.(rank) +. (dur -. wait);
          t.acc_wait.(rank) <- t.acc_wait.(rank) +. wait
      | Bother -> ());
      t.acc_spans.(rank) <- t.acc_spans.(rank) + 1;
      t.span_end.(rank) <- t0 +. dur

(* Close the open cell and pad every never-visited column with the
   zero-width cell [of_spans] backfills at the rank's finish — the end
   of its last span, which for a rank stuck inside a staged halo is
   earlier than its clock (the uncovered send time a blocked fiber also
   never surfaces as a span). Runs on the calling domain, on lane 0. *)
let finish_cells t ~rank =
  if t.sink != None then begin
    let now = t.span_end.(rank) in
    close_cell t ~rank ~t_end:now;
    for col = t.hi_col.(rank) + 1 to t.cols do
      log_cell t ~rank ~col ~spans:0 ~t_start:now ~t_end:now ~compute:0.0
        ~send:0.0 ~recv:0.0 ~wait:0.0
    done;
    drain t
  end

(* A clock advance plus its span and cell bookkeeping. *)
let charge t ~rank ~name ~cat ~col ~bucket ?(wait = 0.0) ~args d =
  let t0 = t.clock.(rank) in
  t.clock.(rank) <- t0 +. d;
  emit t ~rank ~name ~cat ~start:t0 args;
  cell_note t ~rank ~col ~t0 ~dur:d ~bucket ~wait

let wave_args w = [ (Obs.Timeline.wave_arg, Obs.Span.Int w) ]

let epilogue_args =
  [ (Obs.Timeline.wave_arg, Obs.Span.Int Obs.Timeline.epilogue_wave) ]

(* An injected delay, spent as a clock advance in column [col] (the
   epilogue's is [t.cols]): the compute-side clauses count as compute,
   link and collective stalls as comm (all of it wait), the recovery
   protocol as neither. *)
let spend t ~rank ~col (kind : Perturb.Model.kind) d =
  let name = Perturb.Model.span_name kind in
  let tag = if col = t.cols then epilogue_args else wave_args col in
  match kind with
  | Noise | Straggler | Pulse | Periodic ->
      charge t ~rank ~name ~cat:"compute" ~col ~bucket:Bcompute ~args:tag d
  | Link | Collnoise ->
      charge t ~rank ~name ~cat:"comm" ~col ~bucket:Bother
        ~args:(("wait", Obs.Span.Float d) :: tag)
        d
  | Checkpoint | Restart | Replay ->
      charge t ~rank ~name ~cat:"recover" ~col ~bucket:Bother ~args:tag d

(* --- the substrate --- *)

module Backend = struct
  type nonrec t = t
  type payload = int  (* the face's modeled byte size *)

  let boundary _ ~rank:_ ~axis:_ ~h:_ = 0

  (* The bare simulation path is clock arithmetic on flat arrays alone:
     the wave index and the inlined cell bookkeeping only run when a
     tracer or cell sink is attached, and the span arg lists only when
     a tracer is. *)
  let traced t = t.tracer != None
  let observed t = traced t || t.sink != None

  let link_onchip t ~rank ~peer ~axis2 =
    Char.code
      (Bytes.unsafe_get t.loc_bits
         ((rank * 4) + axis2 + if peer > rank then 0 else 1))

  let recv t ~rank ~src ~axis ~tile ~h:_ ~bytes =
    let t0 = t.clock.(rank) in
    let axis2 = match axis with Substrate.X -> 0 | Y -> 2 in
    let dlv = if axis2 = 0 then t.dlv_x else t.dlv_y in
    let delivered = dlv.((rank * t.ntiles) + tile) in
    (* open-coded nan test and max: [Float.is_nan]/[Float.max] are calls
       that box their float arguments under classic ocamlopt, and this is
       the per-message hot path the zero-alloc gate measures *)
    if delivered <> delivered then raise (Stuck_on { rank; src });
    let wait = delivered -. t0 in
    let wait = if wait > 0.0 then wait else 0.0 in
    t.clock.(rank) <-
      t0 +. wait +. t.c_rovh.(axis2 + link_onchip t ~rank ~peer:src ~axis2);
    t.rcvd.(rank) <- t.rcvd.(rank) + 1;
    t.bus_acc.(rank) <-
      t.bus_acc.(rank) +. (if axis2 = 0 then t.bi_ew else t.bi_ns);
    if observed t then begin
      let w = wave t ~rank ~tile in
      if traced t then
        emit t ~rank ~name:"recv" ~cat:"comm" ~start:t0
          [
            ("src", Obs.Span.Int src);
            ("size", Obs.Span.Int bytes);
            ("wait", Obs.Span.Float wait);
            (Obs.Timeline.wave_arg, Obs.Span.Int w);
          ];
      cell_note t ~rank ~col:w ~t0 ~dur:(t.clock.(rank) -. t0) ~bucket:Brecv
        ~wait
    end;
    bytes

  let send t ~rank ~dst ~axis ~tile bytes =
    (match t.model with
    | None -> ()
    | Some m ->
        Perturb.Model.before_send m ~rank
          (spend t ~rank ~col:(wave t ~rank ~tile)));
    let t0 = t.clock.(rank) in
    let axis2 = match axis with Substrate.X -> 0 | Y -> 2 in
    let onchip = link_onchip t ~rank ~peer:dst ~axis2 in
    t.clock.(rank) <- t0 +. t.c_send.(axis2 + onchip);
    let delivered = t.clock.(rank) +. t.c_flight.(axis2 + onchip) in
    let dlv = if axis2 = 0 then t.dlv_x else t.dlv_y in
    dlv.((dst * t.ntiles) + tile) <- delivered;
    t.sent.(rank) <- t.sent.(rank) + 1;
    t.bus_acc.(rank) <-
      t.bus_acc.(rank) +. (if axis2 = 0 then t.bi_ew else t.bi_ns);
    if observed t then begin
      let w = wave t ~rank ~tile in
      if traced t then
        emit t ~rank ~name:"send" ~cat:"comm" ~start:t0
          [
            ("dst", Obs.Span.Int dst);
            ("size", Obs.Span.Int bytes);
            ("wait", Obs.Span.Float 0.0);
            (Obs.Timeline.wave_arg, Obs.Span.Int w);
          ];
      cell_note t ~rank ~col:w ~t0 ~dur:(t.clock.(rank) -. t0) ~bucket:Bsend
        ~wait:0.0
    end

  let compute t ~rank ~dir:_ ~tile ~h:_ ~x:_ ~y:_ =
    let work = Costs.compute t.costs in
    (match t.model with
    | None -> ()
    | Some m ->
        Perturb.Model.before_compute m ~rank ~tile
          ~wave_cost:(work +. Costs.precompute t.costs)
          (spend t ~rank ~col:(wave t ~rank ~tile)));
    let t0 = t.clock.(rank) in
    t.clock.(rank) <- t0 +. work;
    if observed t then begin
      let w = wave t ~rank ~tile in
      if traced t then
        emit t ~rank ~name:"compute" ~cat:"compute" ~start:t0 (wave_args w);
      cell_note t ~rank ~col:w ~t0 ~dur:work ~bucket:Bcompute ~wait:0.0
    end;
    (match t.model with
    | None -> ()
    | Some m ->
        Perturb.Model.after_compute m ~rank ~work
          (spend t ~rank ~col:(wave t ~rank ~tile)));
    t.faces

  let precompute t ~rank ~tile =
    let d = Costs.precompute t.costs in
    if d > 0.0 then begin
      let t0 = t.clock.(rank) in
      t.clock.(rank) <- t0 +. d;
      if observed t then begin
        let w = wave t ~rank ~tile in
        if traced t then
          emit t ~rank ~name:"precompute" ~cat:"compute" ~start:t0
            (wave_args w);
        cell_note t ~rank ~col:w ~t0 ~dur:d ~bucket:Bcompute ~wait:0.0
      end
    end

  let sweep_begin t ~rank ~sweep ~dir:_ = t.sweep.(rank) <- sweep

  let tile_begin t ~rank ~iteration:_ ~sweep:_ ~tile ~wave:gwave =
    match t.model with
    | None -> ()
    | Some m ->
        Perturb.Model.tile_begin m ~rank ~wave:gwave
          (spend t ~rank ~col:(wave t ~rank ~tile))
end

(* --- the domain pool --- *)

(* A persistent spinning worker pool: stages are short (one diagonal,
   one epilogue pass), so parked-thread wakeups would dominate; workers
   spin on an epoch counter with [Domain.cpu_relax] instead. A stage has
   [lanes] lanes, but the pool never runs more domains than
   [Domain.recommended_domain_count ()]: a spinning domain the cores
   cannot hold makes every barrier wait for its next time slice. Of [w]
   domains, the calling one being domain 0, domain i runs lanes i,
   i + w, ... in turn. Publication of the job closure happens before the
   epoch store, so the atomic acquire on the worker side orders the
   plain read after it. *)
module Pool = struct
  type pool = {
    lanes : int;
    w : int;  (* domains running the lanes, the calling one included *)
    job : (int -> unit) ref;
    epoch : int Atomic.t;
    finished : int Atomic.t;
    stop : bool Atomic.t;
    error : exn option Atomic.t;
    mutable workers : unit Domain.t list;
  }

  (* Domain [idx]'s lanes of one stage. An exception ends them and
     fails the stage. *)
  let run_lanes p f idx =
    try
      for m = 0 to (p.lanes - 1 - idx) / p.w do
        f (idx + (m * p.w))
      done
    with e -> ignore (Atomic.compare_and_set p.error None (Some e))

  let worker p idx =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      while Atomic.get p.epoch = !seen && not (Atomic.get p.stop) do
        Domain.cpu_relax ()
      done;
      if Atomic.get p.stop then running := false
      else begin
        seen := Atomic.get p.epoch;
        run_lanes p !(p.job) idx;
        Atomic.incr p.finished
      end
    done

  let create lanes =
    let p =
      {
        lanes;
        w = min lanes (Domain.recommended_domain_count ());
        job = ref (fun _ -> ());
        epoch = Atomic.make 0;
        finished = Atomic.make 0;
        stop = Atomic.make false;
        error = Atomic.make None;
        workers = [];
      }
    in
    if p.w > 1 then
      p.workers <-
        List.init (p.w - 1) (fun i ->
            Domain.spawn (fun () -> worker p (i + 1)));
    p

  let run p f =
    if p.w = 1 then
      for k = 0 to p.lanes - 1 do
        f k
      done
    else begin
      p.job := f;
      Atomic.set p.finished 0;
      Atomic.incr p.epoch;
      run_lanes p f 0;
      while Atomic.get p.finished < p.w - 1 do
        Domain.cpu_relax ()
      done;
      match Atomic.get p.error with
      | Some e ->
          Atomic.set p.error None;
          raise e
      | None -> ()
    end

  let shutdown p =
    Atomic.set p.stop true;
    List.iter Domain.join p.workers;
    p.workers <- []
end

(* --- outcome --- *)

type outcome = {
  ranks : int;
  completed : bool;
  elapsed : float;  (** max finish clock over completed ranks, us *)
  iterations : int;
  per_iteration : float;
  waves : int;  (** timeline wave columns ([nsweeps * ntiles]) *)
  blocked : (int * string) list;
  failed : int list;
  recovered : int list;
  checkpoints : int;
  messages : int;
  orphaned : int;
  bus_wait : float;
      (** total Table-6 bus interference charged across all ranks, us
          (0 when [Costs.model_bus costs] is false) *)
  finish : float array;
}

let pp_outcome ppf (o : outcome) =
  if o.completed then
    Fmt.pf ppf "%d ranks completed in %.1f us, %d messages%s" o.ranks
      o.elapsed o.messages
      (if o.recovered = [] then ""
       else Fmt.str ", %d recovered" (List.length o.recovered))
  else if o.failed <> [] then
    Fmt.pf ppf
      "DEGRADED: rank(s) %s killed, %d of %d stuck, %d orphaned message(s)"
      (String.concat ", " (List.map string_of_int o.failed))
      (List.length o.blocked) o.ranks o.orphaned
  else
    Fmt.pf ppf "DEADLOCK: %d of %d ranks stuck" (List.length o.blocked)
      o.ranks

(* --- the driver --- *)

let substrate : (t, int) Substrate.tile_loop = (module Backend)

(* Build the flat engine state for one program configuration; shared by
   [run] and the [Steady] telemetry probe so both exercise the identical
   hot-path caches. *)
let make_state ~perturb ~recover ~obs ~cells ~lanes ~costs pg
    (cfg : Program.config) =
  let ranks = Proc_grid.cores pg in
  let rows = pg.Proc_grid.rows and cols = pg.Proc_grid.cols in
  let ntiles = cfg.Program.tiling.Program.ntiles in
  let nsweeps = List.length (Sweeps.Schedule.sweeps cfg.Program.schedule) in
  (* One locality probe per grid link at setup, which sets the on-chip
     bit of both its ends; the tile loop then never touches the
     node-rectangle arithmetic. *)
  let loc_bits = Bytes.make (ranks * 4) '\000' in
  let link axis2 rank peer =
    match Costs.locality costs ~src:rank ~dst:peer with
    | Loggp.Comm_model.On_chip ->
        Bytes.set loc_bits ((rank * 4) + axis2) '\001';
        Bytes.set loc_bits ((peer * 4) + axis2 + 1) '\001'
    | Off_node -> ()
  in
  for rank = 0 to ranks - 1 do
    if rank mod cols < cols - 1 then link 0 rank (rank + 1);
    if rank / cols < rows - 1 then link 2 rank (rank + cols)
  done;
  let per_link f =
    [|
      f Loggp.Comm_model.Off_node cfg.Program.msg_ew;
      f Loggp.Comm_model.On_chip cfg.Program.msg_ew;
      f Loggp.Comm_model.Off_node cfg.Program.msg_ns;
      f Loggp.Comm_model.On_chip cfg.Program.msg_ns;
    |]
  in
  (* Fold the Table-6 interference into the per-(axis, locality) charge
     caches — the hot path then pays the bus model nothing. The paper's
     closed form charges the coefficient regardless of the link's own
     locality (its (r4) stance: the contenders are the node's *other*
     cores' DMA transfers), so both columns of an axis get the same
     term. Gated so the bus-off caches stay bitwise-identical. *)
  let bi_ew = Costs.bus_ew costs and bi_ns = Costs.bus_ns costs in
  let add_bus a =
    if Costs.model_bus costs then
      [| a.(0) +. bi_ew; a.(1) +. bi_ew; a.(2) +. bi_ns; a.(3) +. bi_ns |]
    else a
  in
  let logs = Array.init lanes (fun _ -> Obs.Cell_batch.create ()) in
  {
    costs;
    ranks;
    ntiles;
    cols = nsweeps * ntiles;
    msg_ew = cfg.Program.msg_ew;
    msg_ns = cfg.Program.msg_ns;
    faces = (cfg.Program.msg_ew, cfg.Program.msg_ns);
    model = Perturb.Model.create ?perturb ?recover ~ranks ();
    tracer = obs;
    sink = cells;
    clock = Array.make ranks 0.0;
    sweep = Array.make ranks 0;
    finish = Array.make ranks 0.0;
    status = Array.make ranks Alive;
    sent = Array.make ranks 0;
    rcvd = Array.make ranks 0;
    dlv_x = Array.make (ranks * ntiles) nan;
    dlv_y = Array.make (ranks * ntiles) nan;
    loc_bits;
    c_send = add_bus (per_link (Costs.send_busy_at costs));
    c_flight = per_link (Costs.in_flight_at costs);
    c_rovh = add_bus (per_link (fun loc _ -> Costs.recv_overhead_at costs loc));
    bi_ew;
    bi_ns;
    bus_acc = Array.make ranks 0.0;
    log = logs.(0);
    logs;
    cur_col = Array.make ranks (-1);
    hi_col = Array.make ranks (-1);
    span_end = Array.make ranks 0.0;
    col_start = Array.make ranks 0.0;
    acc_compute = Array.make ranks 0.0;
    acc_send = Array.make ranks 0.0;
    acc_recv = Array.make ranks 0.0;
    acc_wait = Array.make ranks 0.0;
    acc_spans = Array.make ranks 0;
    op_t0 = Array.make ranks 0.0;
    halo_dlv = Array.make ranks nan;
  }

let run ?(iterations = 1) ?tiling ?perturb ?recover ?obs ?cells
    ?(domains = 1) ~costs pg (app : Wavefront_core.App_params.t) =
  if domains < 1 then invalid_arg "Batched.run: domains must be >= 1";
  if domains > 1 && obs <> None then
    invalid_arg "Batched.run: span tracing requires domains = 1";
  let cfg = Program.of_app ~iterations ?tiling pg app in
  let ranks = Proc_grid.cores pg in
  let rows = pg.Proc_grid.rows and cols = pg.Proc_grid.cols in
  let domains = min domains rows in
  let ntiles = cfg.Program.tiling.Program.ntiles in
  let sweeps = Array.of_list (Sweeps.Schedule.sweeps cfg.Program.schedule) in
  let dirs = Array.map (Program.flow pg) sweeps in
  let t =
    make_state ~perturb ~recover ~obs ~cells ~lanes:domains ~costs pg cfg
  in
  (* Lane k's view of the state, for whichever domain runs chunk (or
     band) k of a stage; lane 0 is [t] itself. *)
  let lanes =
    Array.map (fun log -> if log == t.log then t else { t with log }) t.logs
  in
  let band = band_range pg ~bands:domains in
  let pool = Pool.create domains in
  (* Every stage ends with the calling domain draining the cells the
     lanes closed during it. *)
  let stage f =
    Pool.run pool f;
    drain t
  in
  let alive rank = match t.status.(rank) with Alive -> true | _ -> false in
  (* One rank, one sweep segment: the whole tile loop of sweep [s],
     epilogue and finish excluded. *)
  let run_segment lane ~iter ~s rank =
    try
      Program.run_sweep substrate lane cfg ~rank ~iteration:iter ~sweep:s
        ~dir:dirs.(s) ~tile0:0
    with
    | Stuck_on { rank; src } -> t.status.(rank) <- Blocked_recv src
    | Perturb.Model.Killed { rank; _ } -> t.status.(rank) <- Failed
  in
  let each_banded f =
    stage (fun k ->
        let lane = lanes.(k) in
        let lo, hi = band k in
        for rank = lo to hi - 1 do
          f lane rank
        done)
  in
  (* --- the epilogue, resolved op by op across all ranks --- *)
  let local_work d =
    if d > 0.0 then
      each_banded (fun lane rank ->
          if alive rank then
            charge lane ~rank ~name:"compute" ~cat:"compute" ~col:t.cols
              ~bucket:Bcompute ~args:epilogue_args d)
  in
  let halo ~dx ~dy ~bytes =
    (* Pass 1: every live rank stamps its op start and performs its send
       (delivery computed from the sender's clock alone). *)
    each_banded (fun _ rank ->
        if alive rank then begin
          t.op_t0.(rank) <- t.clock.(rank);
          let dst = Program.peer cfg rank ~dx ~dy in
          if dst >= 0 then begin
            let t0 = t.clock.(rank) in
            t.clock.(rank) <-
              t0 +. Costs.send_busy t.costs ~src:rank ~dst bytes;
            t.halo_dlv.(dst) <-
              t.clock.(rank) +. Costs.in_flight t.costs ~src:rank ~dst bytes;
            t.sent.(rank) <- t.sent.(rank) + 1
          end
        end);
    (* Pass 2: every live rank receives (or gets stuck on a missing
       delivery) and emits the whole op's span; every slot goes back to
       NaN for the next halo op. *)
    each_banded (fun lane rank ->
        (if alive rank then
           let src = Program.peer cfg rank ~dx:(-dx) ~dy:(-dy) in
           let delivered = t.halo_dlv.(rank) in
           if src >= 0 && Float.is_nan delivered then
             t.status.(rank) <- Blocked_recv src
           else begin
             if src >= 0 then begin
               let t0 = t.clock.(rank) in
               let wait = Float.max 0.0 (delivered -. t0) in
               t.clock.(rank) <-
                 t0 +. wait +. Costs.recv_overhead t.costs ~src ~dst:rank;
               t.rcvd.(rank) <- t.rcvd.(rank) + 1
             end;
             if src >= 0 || Program.peer cfg rank ~dx ~dy >= 0 then begin
               let t0 = t.op_t0.(rank) in
               if Backend.traced t then
                 emit t ~rank ~name:"halo" ~cat:"comm" ~start:t0
                   (("wait", Obs.Span.Float (t.clock.(rank) -. t0))
                   :: epilogue_args);
               cell_note lane ~rank ~col:t.cols ~t0
                 ~dur:(t.clock.(rank) -. t0) ~bucket:Bother ~wait:0.0
             end
           end);
        t.halo_dlv.(rank) <- nan)
  in
  let all_present () =
    let ok = ref true in
    for rank = 0 to ranks - 1 do
      if not (alive rank) then ok := false
    done;
    !ok
  in
  let allreduce ~count ~msg_size =
    let cost = Costs.allreduce t.costs ~count:1 ~msg_size in
    (* Entry: charge the collective-noise stall (one draw per call, as
       in the fiber substrates) and record the entry clock. *)
    each_banded (fun lane rank ->
        if alive rank then begin
          (match t.model with
          | Some m ->
              Perturb.Model.before_allreduce m ~rank
                (spend lane ~rank ~col:t.cols)
          | None -> ());
          t.op_t0.(rank) <- t.clock.(rank)
        end);
    if not (all_present ()) then
      (* A dead or stuck rank never arrives, so the rendezvous never
         releases: every arrival parks forever, clock frozen at entry. *)
      each_banded (fun _ rank ->
          if alive rank then t.status.(rank) <- Blocked_coll)
    else begin
      (* Release at the maximum entry clock; [count] back-to-back
         rounds release in lockstep after the first. The max is an
         associative, commutative float fold, so the per-domain partial
         maxima combine identically for every domain count. *)
      let partial = Array.make domains neg_infinity in
      stage (fun k ->
          let lo, hi = band k in
          let m = ref neg_infinity in
          for rank = lo to hi - 1 do
            m := Float.max !m t.op_t0.(rank)
          done;
          partial.(k) <- !m);
      let release = Array.fold_left Float.max neg_infinity partial in
      each_banded (fun lane rank ->
          if alive rank then begin
            let t0 = t.op_t0.(rank) in
            t.clock.(rank) <- release +. (float_of_int count *. cost);
            if Backend.traced t then
              emit t ~rank ~name:"allreduce" ~cat:"comm" ~start:t0
                (("wait", Obs.Span.Float (t.clock.(rank) -. t0))
                :: epilogue_args);
            cell_note lane ~rank ~col:t.cols ~t0 ~dur:(t.clock.(rank) -. t0)
              ~bucket:Bother ~wait:0.0
          end)
    end
  in
  let run_epilogue () =
    if cfg.epilogue <> [] then begin
      (* Close each live rank's last wavefront cell here, on the calling
         domain in rank order: it ends at the rank's clock, where its
         first epilogue span starts. Closed by that span inside a pass
         instead, one cell per rank would pile up in the logs before the
         drain. *)
      if t.sink != None then
        for rank = 0 to ranks - 1 do
          if alive rank then begin
            close_cell t ~rank ~t_end:t.clock.(rank);
            drain t
          end
        done;
      List.iter
        (function
          | Program.Local_work d -> local_work d
          | Halo { dx; dy; bytes } -> halo ~dx ~dy ~bytes
          | Allreduce { count; msg_size } -> allreduce ~count ~msg_size)
        cfg.epilogue
    end
  in
  (* --- main loop: sweeps in schedule order, diagonals in flow order --- *)
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for iter = 1 to iterations do
        for s = 0 to Array.length sweeps - 1 do
          (* Reset the sweep's delivery slots before any send. *)
          stage (fun k ->
              let lo, hi = band k in
              Array.fill t.dlv_x (lo * ntiles) ((hi - lo) * ntiles) nan;
              Array.fill t.dlv_y (lo * ntiles) ((hi - lo) * ntiles) nan);
          let dx, dy, _ = dirs.(s) in
          (* Diagonal d holds the ranks whose 0-based column and row
             distances from the sweep's origin corner sum to d: at most
             one per processor row, so its ranks in ascending rank order
             are one per row of a contiguous row range. Lane k runs the
             k-th of [domains] near-equal contiguous chunks of them. *)
          for d = 0 to cols + rows - 2 do
            let dist_lo = max 0 (d - cols + 1) and dist_hi = min (rows - 1) d in
            let row_lo = if dy > 0 then dist_lo else rows - 1 - dist_hi in
            let n = dist_hi - dist_lo + 1 in
            stage (fun k ->
                let lane = lanes.(k) in
                for idx = k * n / domains to ((k + 1) * n / domains) - 1 do
                  let row = row_lo + idx in
                  let dist_x = d - if dy > 0 then row else rows - 1 - row in
                  let rank =
                    (row * cols) + if dx > 0 then dist_x else cols - 1 - dist_x
                  in
                  if alive rank then run_segment lane ~iter ~s rank
                done)
          done
        done;
        run_epilogue ()
      done;
      (* Completion, on the calling domain in rank order: finish clocks
         for ranks that ran the whole program, cell flush for everyone. *)
      for rank = 0 to ranks - 1 do
        (match t.status.(rank) with
        | Alive ->
            t.finish.(rank) <- t.clock.(rank);
            t.status.(rank) <- Done
        | _ -> ());
        finish_cells t ~rank
      done);
  (* --- outcome --- *)
  let blocked = ref [] and failed = ref [] in
  for rank = ranks - 1 downto 0 do
    match t.status.(rank) with
    | Blocked_recv src ->
        blocked :=
          (rank, Fmt.str "blocked receiving from rank %d" src) :: !blocked
    | Blocked_coll -> blocked := (rank, "blocked in a collective") :: !blocked
    | Failed -> failed := rank :: !failed
    | Alive | Done -> ()
  done;
  let completed = !blocked = [] && !failed = [] in
  (* One left-to-right pass with local float accumulators: the same bits
     as folding [Float.max] and [( +. )] over the arrays, without boxing
     each element and partial result. *)
  let elapsed = ref 0.0 and bus_wait = ref 0.0 in
  for rank = 0 to ranks - 1 do
    elapsed := Float.max !elapsed t.finish.(rank);
    bus_wait := !bus_wait +. t.bus_acc.(rank)
  done;
  let elapsed = !elapsed in
  let sum a = Array.fold_left ( + ) 0 a in
  {
    ranks;
    completed;
    elapsed;
    iterations;
    per_iteration = elapsed /. float_of_int iterations;
    waves = t.cols;
    blocked = !blocked;
    failed = !failed;
    recovered = Option.fold ~none:[] ~some:Perturb.Model.recovered t.model;
    checkpoints = Option.fold ~none:0 ~some:Perturb.Model.checkpoints t.model;
    messages = sum t.sent;
    orphaned = sum t.sent - sum t.rcvd;
    bus_wait = !bus_wait;
    finish = t.finish;
  }

(* A small-scale convenience: run with a dense cell sink and assemble
   the exact [Obs.Timeline.t] the traced substrates reconstruct via
   [of_spans]. Materializes O(ranks * waves) cells — for analytics at
   scale, stream into [Obs.Timeline_stream] via [~cells] instead. *)
let run_timeline ?iterations ?tiling ?perturb ?recover ?domains ~costs pg app
    =
  let ranks = Proc_grid.cores pg in
  let cells_acc = ref [||] in
  let cells (b : Obs.Cell_batch.t) =
    let rows = !cells_acc in
    for i = 0 to b.n - 1 do
      let rank = Obs.Cell_batch.rank b i and col = Obs.Cell_batch.col b i in
      let c = Obs.Cell_batch.cell b i in
      let prev = rows.(rank).(col) in
      (* Merge repeat visits (iterations > 1): totals add, the window
         spans the union — the streaming contract. *)
      rows.(rank).(col) <-
        (if prev.Obs.Timeline.spans = 0 && Obs.Timeline.cell_width prev = 0.0
         then c
         else
           {
             Obs.Timeline.t_start = Float.min prev.t_start c.t_start;
             t_end = Float.max prev.t_end c.t_end;
             compute = prev.compute +. c.compute;
             send = prev.send +. c.send;
             recv = prev.recv +. c.recv;
             wait = prev.wait +. c.wait;
             other = prev.other +. c.other;
             idle = prev.idle +. c.idle;
             spans = prev.spans + c.spans;
           })
    done
  in
  (* Column count depends on the app's tiling; compute it the same way
     [run] does. *)
  let cfg = Program.of_app ?iterations ?tiling pg app in
  let cols =
    List.length (Sweeps.Schedule.sweeps cfg.Program.schedule)
    * cfg.Program.tiling.Program.ntiles
  in
  cells_acc :=
    Array.init ranks (fun _ ->
        Array.make (cols + 1) (Obs.Timeline.zero_cell 0.0));
  let o =
    run ?iterations ?tiling ?perturb ?recover ~cells ?domains ~costs pg app
  in
  let start = Array.map (fun row -> row.(0).Obs.Timeline.t_start) !cells_acc in
  let finish =
    Array.map
      (fun row ->
        Array.fold_left
          (fun a (c : Obs.Timeline.cell) -> Float.max a c.t_end)
          0.0 row)
      !cells_acc
  in
  let tl =
    {
      Obs.Timeline.ranks;
      waves = cols;
      cells = !cells_acc;
      t0 = Array.fold_left Float.min (if ranks > 0 then start.(0) else 0.0)
          start;
      start;
      finish;
      dropped = 0;
    }
  in
  (o, tl)

(* --- the steady-state telemetry probe --- *)

(* An interior rank of a live engine state, stepped through the exact
   per-tile backend op sequence of the wavefront section — precompute,
   the two upstream receives, compute, the two downstream sends — over
   and over, with its delivery slots re-primed before each step. This is
   the repeatable form of the engine's steady-state work the zero-alloc
   gate measures: unobserved (no tracer, no sink, no perturbation), one
   step advances only the rank's clock and flat-array slots. *)
module Steady = struct
  type nonrec probe = {
    state : t;
    rank : int;
    west : int;
    north : int;
    east : int;
    south : int;
  }

  (* Static so a step passes an existing tuple, not a fresh one. *)
  let flow = (1, 1, 1)

  let probe ~costs pg (app : Wavefront_core.App_params.t) =
    let cols = pg.Proc_grid.cols and rows = pg.Proc_grid.rows in
    if cols < 3 || rows < 3 then
      invalid_arg "Batched.Steady.probe: the grid must be at least 3x3";
    let cfg = Program.of_app pg app in
    let state =
      make_state ~perturb:None ~recover:None ~obs:None ~cells:None ~lanes:1
        ~costs pg cfg
    in
    let rank = Proc_grid.rank pg ((cols / 2) + 1, (rows / 2) + 1) in
    {
      state;
      rank;
      west = rank - 1;
      north = rank - cols;
      east = rank + 1;
      south = rank + cols;
    }

  let step p =
    let t = p.state in
    let rank = p.rank in
    let slot = rank * t.ntiles in
    (* Re-prime tile 0's delivery slots as if both upstream neighbours
       had just sent: zero wait, same arithmetic as a mid-sweep rank. *)
    let now = t.clock.(rank) in
    t.dlv_x.(slot) <- now;
    t.dlv_y.(slot) <- now;
    Backend.tile_begin t ~rank ~iteration:1 ~sweep:0 ~tile:0 ~wave:0;
    Backend.precompute t ~rank ~tile:0;
    let x =
      Backend.recv t ~rank ~src:p.west ~axis:Substrate.X ~tile:0 ~h:0
        ~bytes:t.msg_ew
    in
    let y =
      Backend.recv t ~rank ~src:p.north ~axis:Substrate.Y ~tile:0 ~h:0
        ~bytes:t.msg_ns
    in
    let fx, fy = Backend.compute t ~rank ~dir:flow ~tile:0 ~h:0 ~x ~y in
    Backend.send t ~rank ~dst:p.east ~axis:Substrate.X ~tile:0 fx;
    Backend.send t ~rank ~dst:p.south ~axis:Substrate.Y ~tile:0 fy

  let clock p = p.state.clock.(p.rank)
  let messages p = p.state.sent.(p.rank) + p.state.rcvd.(p.rank)
end
