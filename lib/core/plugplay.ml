(* The plug-and-play re-usable LogGP model (paper Section 4, Tables 5 and 6).

   Equations implemented here, with their paper labels:

     Wpre = Wg_pre * Htile * Nx/n * Ny/m                               (r1a)
     W    = Wg     * Htile * Nx/n * Ny/m                               (r1b)
     StartP(1,1) = Wpre                                                (r2a)
     StartP(i,j) = max(StartP(i-1,j) + W + Total_commE + ReceiveN,
                       StartP(i,j-1) + W + SendE + Total_commS)        (r2b)
     Tdiagfill = StartP(1,m)                                           (r3a)
     Tfullfill = StartP(n,m)                                           (r3b)
     Tstack = (ReceiveW + ReceiveN + W + SendE + SendS + Wpre)
              * Nz/Htile - Wpre                                        (r4)
     Titer  = ndiag*Tdiagfill + nfull*Tfullfill
              + nsweeps*Tstack + Tnonwavefront                         (r5)

   For multi-core nodes, each communication term in (r2b) is classified
   on-chip or off-node by the position of the cores involved inside the
   Cx x Cy node rectangle (Table 6), all communication in (r4) is off-node
   (the stack proceeds at the rate of the slowest direction), and the
   shared-bus interference term I = o_dma + size * G_dma is added to the
   sends and receives of (r4).

   One implementation evaluates all of it: [Eval] (below), of which
   [iteration] is a thin wrapper. *)

open Wgrid
module Comm = Loggp.Comm_model

type config = {
  platform : Loggp.Params.t;
  cmp : Cmp.t;
  pgrid : Proc_grid.t;
  contention : bool;
  sync_terms : bool;
}

let config ?cmp ?pgrid ?(contention = true) ?(sync_terms = false) platform
    ~cores =
  if cores < 1 then invalid_arg "Plugplay.config: cores must be >= 1";
  let cmp =
    match cmp with
    | Some c -> c
    | None -> Cmp.of_cores_per_node platform.Loggp.Params.cores_per_node
  in
  let pgrid =
    match pgrid with Some g -> g | None -> Proc_grid.of_cores cores
  in
  if Proc_grid.cores pgrid <> cores then
    invalid_arg "Plugplay.config: pgrid does not match the core count";
  { platform; cmp; pgrid; contention; sync_terms }

type result = {
  w : float;
  w_pre : float;
  msg_ew : int;
  msg_ns : int;
  t_diagfill : float;
  t_fullfill : float;
  t_stack : float;
  t_nonwavefront : float;
  t_iteration : float;
}

(* Shared-bus interference coefficients for the sends and receives of (r4),
   generalizing the three cases of Table 6 (1x2 -> I on the N/S operations;
   2x2 -> I on every operation; 2x4 -> 2I on every operation): cores sharing
   a bus interfere in proportion to Cx*Cy/4 when the rectangle spans both
   dimensions, and only the spanned dimension suffers when the rectangle is a
   single row or column of cores. *)
let contention_coeffs (cmp : Cmp.t) =
  let cpn = float_of_int (Cmp.cores_per_node cmp) in
  if cmp.cx = 1 && cmp.cy = 1 then (0.0, 0.0)
  else if cmp.cx = 1 then (0.0, cpn /. 2.0)
  else if cmp.cy = 1 then (cpn /. 2.0, 0.0)
  else (cpn /. 4.0, cpn /. 4.0)

(* The non-wavefront (between-iteration) cost. *)
let nonwavefront_time (app : App_params.t) cfg =
  match app.nonwavefront with
  | No_op -> 0.0
  | Fixed t -> t
  | Allreduce { count; msg_size } ->
      let cores = Proc_grid.cores cfg.pgrid in
      float_of_int count *. Loggp.Allreduce.time ~msg_size cfg.platform ~cores
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      let cells_x = Decomp.cells_x app.grid cfg.pgrid in
      let cells_y = Decomp.cells_y app.grid cfg.pgrid in
      let nz = float_of_int app.grid.nz in
      let compute = wg_stencil *. cells_x *. cells_y *. nz in
      let face extent =
        Decomp.message_size ~bytes_per_cell:halo_bytes_per_cell ~htile:nz
          ~extent
      in
      let halo =
        (2.0 *. Comm.total_offnode cfg.platform.offnode (face cells_y))
        +. (2.0 *. Comm.total_offnode cfg.platform.offnode (face cells_x))
      in
      compute +. halo

(* --- The evaluator --- *)

(* Everything but the recurrence is a closed form of the configuration,
   so [create] computes it outright: (r1), the message sizes, (r4),
   Tnonwavefront, and the four (r2b) communication terms. Those collapse
   into per-column and per-row tables because [Cmp.link_locality] of an
   E link depends only on its source column and of an S link only on its
   source row, and the node rectangle tiles the grid from (1,1), so the
   column table repeats with period [cx] and the row table with period
   [cy]: [create] prices one period of each through [Cmp.link_locality]
   and [Comm.*] and copies it along the row and the column. O(cols +
   rows) storage, cx + cy locality probes, no recurrence.

   [run] is then pure float-array arithmetic over preallocated unboxed
   storage and allocates zero minor words per call (pinned by the
   telemetry gate; the compiler here is classic ocamlopt, so any record,
   closure or boxed cross-module float return in the loop would show up
   immediately). StartP is a single row of [cols] floats updated in
   place: slot i-1 always holds the newest StartP computed in column i.
   Evaluated one row at a time, each cell's west candidate chains
   through the cell just computed, so [run] evaluates rows in blocks of
   four, row j+r one column behind row j+r-1: four independent chains
   over the same row of slots (see [block]). *)
module Eval = struct
  type out = {
    mutable t_diagfill : float;
    mutable t_fullfill : float;
    mutable t_iteration : float;
  }

  type nonrec t = {
    cols : int;
    rows : int;
    w : float;
    w_pre : float;
    msg_ew : int;
    msg_ns : int;
    (* (r2b) terms per link: E-link out of column i, S-link out of row j;
       slot 0 of each is 0.0, and so is [ew_send.(cols)]: nothing is sent
       east of the last column. *)
    ew_total : float array;  (* .(i), i in 1..cols-1 *)
    ew_send : float array;  (* .(i), i in 1..cols *)
    ns_total : float array;  (* .(j), j in 1..rows-1 *)
    ns_recv : float array;
    start : float array;  (* the StartP row, reused every run *)
    ndiag : float;
    nfull : float;
    t_stack : float;
    stack_term : float;  (* nsweeps * t_stack *)
    t_nonwavefront : float;
    out : out;
  }

  let create (app : App_params.t) cfg =
    let pg = cfg.pgrid in
    let cols = pg.Proc_grid.cols and rows = pg.Proc_grid.rows in
    let cells_tile = Decomp.cells_per_tile app.grid pg ~htile:app.htile in
    let w = app.wg *. cells_tile (* r1b *) in
    let w_pre = app.wg_pre *. cells_tile (* r1a *) in
    let msg_ew = App_params.message_size_ew app pg in
    let msg_ns = App_params.message_size_ns app pg in
    (* One period of the node rectangle: the E links out of columns
       1..cx and the S links out of rows 1..cy; the rest repeat it. *)
    let ew_total = Array.make (max 1 cols) 0.0 in
    let ew_send = Array.make (cols + 1) 0.0 in
    let cx = min cfg.cmp.cx (cols - 1) in
    for i = 1 to cx do
      let loc = Cmp.link_locality cfg.cmp ~src:(i, 1) Cmp.E in
      ew_total.(i) <- Comm.total cfg.platform loc msg_ew;
      ew_send.(i) <- Comm.send cfg.platform loc msg_ew
    done;
    for i = cx + 1 to cols - 1 do
      ew_total.(i) <- ew_total.(i - cx);
      ew_send.(i) <- ew_send.(i - cx)
    done;
    let ns_total = Array.make (max 1 rows) 0.0 in
    let ns_recv = Array.make (max 1 rows) 0.0 in
    let cy = min cfg.cmp.cy (rows - 1) in
    for j = 1 to cy do
      let loc = Cmp.link_locality cfg.cmp ~src:(1, j) Cmp.S in
      ns_total.(j) <- Comm.total cfg.platform loc msg_ns;
      ns_recv.(j) <- Comm.receive cfg.platform loc msg_ns
    done;
    for j = cy + 1 to rows - 1 do
      ns_total.(j) <- ns_total.(j - cy);
      ns_recv.(j) <- ns_recv.(j - cy)
    done;
    (* (r4): all communication off-node; bus interference added per
       Table 6. *)
    let off = cfg.platform.offnode in
    let coeff_ew, coeff_ns =
      if cfg.contention then contention_coeffs cfg.cmp else (0.0, 0.0)
    in
    let i_ew = coeff_ew *. Comm.contention_i cfg.platform.onchip msg_ew in
    let i_ns = coeff_ns *. Comm.contention_i cfg.platform.onchip msg_ns in
    (* Optional handshake back-propagation terms of the Table 4 model
       ((m-1)L and (n-2)L per tile): significant on high-latency platforms
       like the SP/2, negligible on the XT4 (paper Section 4.2). *)
    let sync =
      if cfg.sync_terms then float_of_int (rows - 1 + max 0 (cols - 2)) *. off.l
      else 0.0
    in
    let per_tile =
      Comm.receive_offnode off msg_ew +. i_ew (* ReceiveW *)
      +. Comm.receive_offnode off msg_ns +. i_ns (* ReceiveN *)
      +. w
      +. Comm.send_offnode off msg_ew +. i_ew (* SendE *)
      +. Comm.send_offnode off msg_ns +. i_ns (* SendS *)
      +. w_pre +. sync
    in
    let ntiles = Tile.ntiles ~nz:app.grid.nz ~htile:app.htile in
    let t_stack = (per_tile *. ntiles) -. w_pre in
    let t_nonwavefront = nonwavefront_time app cfg in
    let c = App_params.counts app in
    {
      cols;
      rows;
      w;
      w_pre;
      msg_ew;
      msg_ns;
      ew_total;
      ew_send;
      ns_total;
      ns_recv;
      start = Array.make cols 0.0;
      ndiag = float_of_int c.ndiag;
      nfull = float_of_int c.nfull;
      t_stack;
      stack_term = float_of_int c.nsweeps *. t_stack;
      t_nonwavefront;
      out = { t_diagfill = 0.0; t_fullfill = 0.0; t_iteration = 0.0 };
    }

  (* (r2b) at cell (i,j), with the reference's additions in the
     reference's order: [left] is StartP(i-1,j) and [above] StartP(i,j-1);
     [ewt] is the total of the E link into the cell, [nsr] and [nst] the
     receive and the total of the S link into it, and [ews] the send of
     the E link out of the cell above. A missing neighbour is
     [neg_infinity], whose candidate then loses. Inlined, so its floats
     stay unboxed. *)
  let[@inline] r2b ~w ~left ~ewt ~nsr ~above ~ews ~nst =
    let fw = left +. w +. ewt +. nsr in
    let fn = above +. w +. ews +. nst in
    (* plain compare, not [Float.max]: neither side is ever nan or -0.,
       and the call would box its float arguments *)
    if fw >= fn then fw else fn

  (* The loops below index [start] (cols slots), [ew_total] (at least
     cols) and [ew_send] (cols + 1) only at columns 1..cols, so they read
     and write them unchecked: the bounds checks cost more than the
     arithmetic they guard (the loop ran 1.6x slower with them). *)
  external get : float array -> int -> float = "%array_unsafe_get"
  external set : float array -> int -> float -> unit = "%array_unsafe_set"

  (* Row [j] over columns [lo..hi] (1 <= lo, hi <= cols), in place, its
     newest value carried in a local. Slot i-1 holds StartP(i,j-1) on
     entry and StartP(i,j) on exit; slot lo-2 already holds
     StartP(lo-1,j). *)
  let segment e j lo hi =
    let s = e.start and w = e.w in
    let ewt = e.ew_total and ews = e.ew_send in
    let nsr = e.ns_recv.(j - 1) and nst = e.ns_total.(j - 1) in
    let left = ref (if lo = 1 then neg_infinity else s.(lo - 2)) in
    for i = lo to hi do
      let v =
        r2b ~w ~left:!left ~ewt:(get ewt (i - 1)) ~nsr ~above:(get s (i - 1))
          ~ews:(get ews i) ~nst
      in
      set s (i - 1) v;
      left := v
    done

  (* Rows j..j+3, with cols >= 4, as a wavefront of their own. At step
     k, row j+r computes column i = k-r: its west neighbour is its own
     previous value, and its north neighbour is what row j+r-1 computed
     at step k-1, both held in locals; the cell then overwrites slot
     i-1, which row j+r-1 never reads again. The four chains are
     independent, so their additions overlap. The triangles before the
     first full step and after the last go row by row. *)
  let block e j =
    let cols = e.cols in
    for r = 0 to 3 do
      segment e (j + r) 1 (4 - r)
    done;
    let s = e.start and w = e.w in
    let ewt = e.ew_total and ews = e.ew_send in
    let nsr = e.ns_recv and nst = e.ns_total in
    let nsr0 = nsr.(j - 1) and nsr1 = nsr.(j) in
    let nsr2 = nsr.(j + 1) and nsr3 = nsr.(j + 2) in
    let nst0 = nst.(j - 1) and nst1 = nst.(j) in
    let nst2 = nst.(j + 1) and nst3 = nst.(j + 2) in
    let a0 = ref s.(3) and a1 = ref s.(2) in
    let a2 = ref s.(1) and a3 = ref s.(0) in
    for k = 5 to cols do
      let v0 =
        r2b ~w ~left:!a0 ~ewt:(get ewt (k - 1)) ~nsr:nsr0
          ~above:(get s (k - 1)) ~ews:(get ews k) ~nst:nst0
      in
      let v1 =
        r2b ~w ~left:!a1 ~ewt:(get ewt (k - 2)) ~nsr:nsr1 ~above:!a0
          ~ews:(get ews (k - 1)) ~nst:nst1
      in
      let v2 =
        r2b ~w ~left:!a2 ~ewt:(get ewt (k - 3)) ~nsr:nsr2 ~above:!a1
          ~ews:(get ews (k - 2)) ~nst:nst2
      in
      let v3 =
        r2b ~w ~left:!a3 ~ewt:(get ewt (k - 4)) ~nsr:nsr3 ~above:!a2
          ~ews:(get ews (k - 3)) ~nst:nst3
      in
      set s (k - 1) v0;
      set s (k - 2) v1;
      set s (k - 3) v2;
      set s (k - 4) v3;
      a0 := v0;
      a1 := v1;
      a2 := v2;
      a3 := v3
    done;
    for r = 1 to 3 do
      segment e (j + r) (cols - r + 1) cols
    done

  let run e =
    let cols = e.cols and rows = e.rows in
    let s = e.start in
    (* Row 1: (r2a), then (r2b) with no row above. *)
    Array.fill s 0 cols neg_infinity;
    s.(0) <- e.w_pre (* r2a *);
    segment e 1 2 cols;
    let j = ref 2 in
    if cols >= 4 then
      while !j + 3 <= rows do
        block e !j;
        j := !j + 4
      done;
    for j = !j to rows do
      segment e j 1 cols
    done;
    let o = e.out in
    o.t_diagfill <- s.(0) (* r3a *);
    o.t_fullfill <- s.(cols - 1) (* r3b *);
    o.t_iteration <-
      (e.ndiag *. o.t_diagfill)
      +. (e.nfull *. o.t_fullfill)
      +. e.stack_term +. e.t_nonwavefront (* r5 *)

  let t_iteration e = e.out.t_iteration
  let t_diagfill e = e.out.t_diagfill
  let t_fullfill e = e.out.t_fullfill

  let result e : result =
    {
      w = e.w;
      w_pre = e.w_pre;
      msg_ew = e.msg_ew;
      msg_ns = e.msg_ns;
      t_diagfill = e.out.t_diagfill;
      t_fullfill = e.out.t_fullfill;
      t_stack = e.t_stack;
      t_nonwavefront = e.t_nonwavefront;
      t_iteration = e.out.t_iteration;
    }
end

let iteration app cfg =
  let e = Eval.create app cfg in
  Eval.run e;
  Eval.result e

let time_per_iteration app cfg = (iteration app cfg).t_iteration

(* Per-sweep critical-path contributions implied by the (r5) accounting:
   a Follow-gated sweep adds one stack time, a Diagonal-gated sweep adds a
   diagonal fill on top, a Full-gated sweep a full fill. The contributions
   sum to the iteration time minus the non-wavefront term. *)
let sweep_times app cfg =
  let r = iteration app cfg in
  List.map
    (fun (g : Sweeps.Schedule.gate) ->
      let t =
        match g with
        | Follow -> r.t_stack
        | Diagonal -> r.t_diagfill +. r.t_stack
        | Full -> r.t_fullfill +. r.t_stack
      in
      (g, t))
    (Sweeps.Schedule.gates app.App_params.schedule)

let time_per_time_step app cfg =
  float_of_int app.App_params.iterations *. time_per_iteration app cfg

(* --- Computation/communication decomposition (for Figure 11) --- *)

type components = {
  total : float;
  computation : float;
  communication : float;
}

(* A platform with all communication costs zeroed: evaluating the model on
   it yields the pure-computation component of the critical path. *)
let zero_comm_platform (p : Loggp.Params.t) : Loggp.Params.t =
  {
    p with
    offnode = { g = 0.0; l = 0.0; o = 0.0; o_h = 0.0; eager_limit = max_int };
    onchip =
      { g_copy = 0.0; g_dma = 0.0; o_copy = 0.0; o_dma = 0.0;
        eager_limit = max_int };
  }

let components app cfg =
  let total = time_per_iteration app cfg in
  let comp_cfg =
    { cfg with platform = zero_comm_platform cfg.platform; contention = false }
  in
  let computation = time_per_iteration app comp_cfg in
  { total; computation; communication = total -. computation }

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>W=%a Wpre=%a msgs EW=%dB NS=%dB@,Tdiagfill=%a Tfullfill=%a \
     Tstack=%a Tnonwf=%a@,T_iteration=%a@]"
    Units.pp_time r.w Units.pp_time r.w_pre r.msg_ew r.msg_ns Units.pp_time
    r.t_diagfill Units.pp_time r.t_fullfill Units.pp_time r.t_stack
    Units.pp_time r.t_nonwavefront Units.pp_time r.t_iteration
