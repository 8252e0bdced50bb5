(* Simulated blocking MPI point-to-point communication.

   The simulator implements the protocol mechanics one level below the
   closed-form LogGP equations of Table 1:

   - off-node messages <= the eager limit: the sender pays its software
     overhead o and the payload travels L + size*G behind it;
   - off-node messages above the limit: rendezvous — the sender's request
     travels to the receiver, is answered when a matching receive is posted,
     and only then is the payload injected (the source of the h = 2L
     handshake term and of the blocking behaviour that the wavefront
     pipeline schedule depends on);
   - on-chip messages use the copy path below the limit and the DMA path
     above it;
   - every off-node injection/delivery and on-chip DMA transfer reserves the
     node's shared memory bus for o_dma + size*G_dma (Table 6's interference
     quantum I); concurrent transfers on a node queue behind each other,
     which is where multi-core contention emerges.

   An uncontended ping-pong reproduces equations (1)-(8) exactly (see the
   test suite); contended and irregularly-scheduled traffic — the wavefront
   sweeps — does not, which is what makes model-versus-simulator validation
   meaningful. *)

type box = {
  ready : int Queue.t;  (* delivered payload sizes awaiting a receive *)
  mutable recv_resume : (unit -> unit) option;
  reqs : (unit -> unit) Queue.t;  (* rendezvous requests awaiting a receive *)
  mutable posted : int;  (* rendezvous receives awaiting a request *)
}

(* Per-protocol message and byte counters, pre-created at [create] so the
   send path pays one match and two increments when metrics are on and one
   option check when off. *)
type proto_counters = {
  c_msgs : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
}

type tally = {
  eager : proto_counters;
  rendezvous : proto_counters;
  copy : proto_counters;
  dma : proto_counters;
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  boxes : (int, box) Hashtbl.t array;  (* per destination, keyed by source *)
  bus_free : float array;  (* per node: time the shared bus frees up *)
  trace : Trace.t option;
  tally : tally option;
  mutable sends : int;
}

let tally_of_metrics m =
  let proto p =
    { c_msgs = Obs.Metrics.counter m ("sim.msgs." ^ Trace.protocol_name p);
      c_bytes = Obs.Metrics.counter m ("sim.bytes." ^ Trace.protocol_name p) }
  in
  { eager = proto Trace.Eager; rendezvous = proto Trace.Rendezvous;
    copy = proto Trace.Copy; dma = proto Trace.Dma }

let create ?trace ?metrics engine machine =
  {
    engine;
    machine;
    boxes = Array.init (Machine.cores machine) (fun _ -> Hashtbl.create 8);
    bus_free = Array.make (Machine.node_count machine) 0.0;
    trace;
    tally = Option.map tally_of_metrics metrics;
    sends = 0;
  }

let tallied t ~protocol ~size =
  match t.tally with
  | None -> ()
  | Some tl ->
      let pc =
        match (protocol : Trace.protocol) with
        | Eager -> tl.eager
        | Rendezvous -> tl.rendezvous
        | Copy -> tl.copy
        | Dma -> tl.dma
      in
      Obs.Metrics.inc pc.c_msgs;
      Obs.Metrics.inc ~by:size pc.c_bytes

let traced t ~src ~dst ~size ~protocol ~send_start =
  match t.trace with
  | None -> ()
  | Some tr ->
      Trace.record tr
        { Trace.src; dst; size; protocol; send_start;
          delivered = Engine.now t.engine }

let box t ~dst ~src =
  let table = t.boxes.(dst) in
  match Hashtbl.find_opt table src with
  | Some b -> b
  | None ->
      let b =
        { ready = Queue.create (); recv_resume = None;
          reqs = Queue.create (); posted = 0 }
      in
      Hashtbl.add table src b;
      b

(* Reserve the node's shared bus for [busy] microseconds; returns how long
   the caller must additionally wait for earlier transfers to drain. The
   transfer cost itself is already part of the o/G terms of the message
   timeline, so only the queueing delay is returned. *)
let bus_delay t ~node ~busy =
  if not t.machine.Machine.model_bus then 0.0
  else begin
    let now = Engine.now t.engine in
    let start = Float.max now t.bus_free.(node) in
    t.bus_free.(node) <- start +. busy;
    start -. now
  end

(* Table 6's I = o_dma + size * G_dma: the bus occupancy of one transfer. *)
let interference_quantum (p : Loggp.Params.t) size =
  p.onchip.o_dma +. (float_of_int size *. p.onchip.g_dma)

let deliver ?protocol ?send_start t ~dst ~src ~size =
  (match (protocol, send_start) with
  | Some protocol, Some send_start -> traced t ~src ~dst ~size ~protocol ~send_start
  | _ -> ());
  let b = box t ~dst ~src in
  match b.recv_resume with
  | Some resume ->
      b.recv_resume <- None;
      resume ()
  | None -> Queue.push size b.ready

(* Payload arrival at the destination node: the NIC-to-memory transfer
   queues on the receiving node's bus before the message becomes
   receivable. *)
let arrive ?protocol ?send_start t ~dst ~src ~size =
  let d =
    bus_delay t
      ~node:(Machine.node_of_rank t.machine dst)
      ~busy:(interference_quantum t.machine.platform size)
  in
  if d <= 0.0 then deliver ?protocol ?send_start t ~dst ~src ~size
  else
    Engine.schedule_after t.engine ~delay:d (fun () ->
        deliver ?protocol ?send_start t ~dst ~src ~size)

let request_arrival t ~dst ~src ~reply =
  let b = box t ~dst ~src in
  if b.posted > 0 then begin
    b.posted <- b.posted - 1;
    reply ()
  end
  else Queue.push reply b.reqs

let send t ~src ~dst ~size =
  if size < 0 then invalid_arg "Mpi_sim.send: negative size";
  t.sends <- t.sends + 1;
  let p = t.machine.platform in
  let fsize = float_of_int size in
  let send_start = Engine.now t.engine in
  match Machine.locality t.machine ~src ~dst with
  | On_chip ->
      let oc = p.onchip in
      if size <= oc.eager_limit then begin
        (* Copy path (equation 5): the receiver sees the payload after the
           sender's overhead plus the buffer-to-buffer copy. *)
        tallied t ~protocol:Trace.Copy ~size;
        Engine.wait oc.o_copy;
        Engine.schedule_after t.engine ~delay:(fsize *. oc.g_copy) (fun () ->
            deliver ~protocol:Trace.Copy ~send_start t ~dst ~src ~size)
      end
      else begin
        (* DMA path (equation 6): setup plus a bus-occupying transfer. *)
        tallied t ~protocol:Trace.Dma ~size;
        let d =
          bus_delay t
            ~node:(Machine.node_of_rank t.machine src)
            ~busy:(interference_quantum p size)
        in
        Engine.wait (d +. oc.o_copy +. oc.o_dma);
        Engine.schedule_after t.engine ~delay:(fsize *. oc.g_dma) (fun () ->
            deliver ~protocol:Trace.Dma ~send_start t ~dst ~src ~size)
      end
  | Off_node ->
      let off = p.offnode in
      let lat = Machine.latency t.machine ~src ~dst in
      let src_node = Machine.node_of_rank t.machine src in
      if size <= off.eager_limit then begin
        (* Eager (equation 1). *)
        tallied t ~protocol:Trace.Eager ~size;
        let d = bus_delay t ~node:src_node ~busy:(interference_quantum p size) in
        Engine.wait (d +. off.o);
        Engine.schedule_after t.engine ~delay:(lat +. (fsize *. off.g))
          (fun () -> arrive ~protocol:Trace.Eager ~send_start t ~dst ~src ~size)
      end
      else begin
        (* Rendezvous (equation 2): request, wait for the reply that the
           receiver issues when its matching receive is posted, then inject
           the payload. This is what makes large-message MPI_Send block on
           the receiver's progress. *)
        tallied t ~protocol:Trace.Rendezvous ~size;
        Engine.wait off.o;
        Engine.suspend (fun resume ->
            Engine.schedule_after t.engine ~delay:(lat +. off.o_h)
              (fun () ->
                request_arrival t ~dst ~src ~reply:(fun () ->
                    Engine.schedule_after t.engine ~delay:(lat +. off.o_h)
                      resume)));
        let d = bus_delay t ~node:src_node ~busy:(interference_quantum p size) in
        Engine.wait (d +. off.o);
        Engine.schedule_after t.engine ~delay:((fsize *. off.g) +. lat)
          (fun () ->
            arrive ~protocol:Trace.Rendezvous ~send_start t ~dst ~src ~size)
      end

let recv t ~dst ~src ~size =
  if size < 0 then invalid_arg "Mpi_sim.recv: negative size";
  let p = t.machine.platform in
  let locality = Machine.locality t.machine ~src ~dst in
  let b = box t ~dst ~src in
  (match locality with
  | Off_node when size > p.offnode.eager_limit ->
      (* Rendezvous: answer the sender's request, or record that a receive
         is posted so the request is answered on arrival. *)
      if not (Queue.is_empty b.reqs) then (Queue.pop b.reqs) ()
      else b.posted <- b.posted + 1
  | _ -> ());
  if Queue.is_empty b.ready then
    Engine.suspend (fun resume ->
        if b.recv_resume <> None then
          invalid_arg "Mpi_sim.recv: concurrent receives on one channel";
        b.recv_resume <- Some resume)
  else ignore (Queue.pop b.ready);
  let overhead =
    match locality with
    | On_chip -> p.onchip.o_copy
    | Off_node -> p.offnode.o
  in
  Engine.wait overhead

let sendrecv t ~self ~other ~size =
  send t ~src:self ~dst:other ~size;
  recv t ~dst:self ~src:other ~size

let sends t = t.sends
