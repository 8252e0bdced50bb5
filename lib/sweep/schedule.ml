(* Sweep structures per iteration (paper Figure 2 and Section 4.1).

   An iteration is an ordered list of sweeps, each originating at a corner of
   the 2-D processor grid. What gates the start of sweep k+1 (or the end of
   the iteration, for the last sweep) is determined by where sweep k+1
   originates relative to sweep k:

   - same corner          -> [Follow]: the next sweep starts as soon as the
     origin processor has finished its stack of tiles, and its wavefront
     pipelines directly behind the previous one (e.g. Sweep3D sweeps 1->2);
   - a main-diagonal corner -> [Diagonal]: the next sweep waits for the
     previous sweep to complete at the second corner processor on the main
     diagonal of the wavefronts (e.g. Sweep3D sweeps 2->3);
   - the opposite corner  -> [Full]: the next sweep waits for the previous
     sweep to complete everywhere (e.g. LU sweeps 1->2, Chimaera 3->4).

   The counts of [Full] and [Diagonal] gates are the model inputs n_full and
   n_diag of Table 3; the model charges T_fullfill and T_diagfill pipeline
   fill times for them respectively in equation (r5). *)

open Wgrid

type gate = Follow | Diagonal | Full

type sweep = { origin : Proc_grid.corner; zdir : [ `Up | `Down ] }

type t = { sweeps : sweep list }

let sweeps t = t.sweeps
let nsweeps t = List.length t.sweeps

let v sweeps =
  if sweeps = [] then invalid_arg "Schedule.v: need at least one sweep";
  { sweeps }

let gate_between prev next =
  if prev.origin = next.origin then Follow
  else if next.origin = Proc_grid.opposite prev.origin then Full
  else Diagonal

(* The last sweep of the iteration must complete everywhere before the
   iteration (and its non-wavefront epilogue) ends. *)
let gates t =
  let rec go = function
    | [] -> []
    | [ _last ] -> [ Full ]
    | a :: (b :: _ as rest) -> gate_between a b :: go rest
  in
  go t.sweeps

type counts = { nsweeps : int; nfull : int; ndiag : int }

let counts t =
  let gs = gates t in
  {
    nsweeps = nsweeps t;
    nfull = List.length (List.filter (( = ) Full) gs);
    ndiag = List.length (List.filter (( = ) Diagonal) gs);
  }

(* --- Benchmark schedules (Figure 2) --- *)

let sweep origin zdir = { origin; zdir }

(* LU (Figure 2(a)): a forward sweep from (1,1) to (n,m), then a backward
   sweep in the opposite direction; each must fully complete before the next
   phase (n_full = 2, n_diag = 0). *)
let lu = v [ sweep C11 `Up; sweep Cnm `Down ]

(* Sweep3D (Figure 2(b)): eight sweeps, two per corner (the two octants of a
   corner differ only in z direction, which does not change the 2-D wavefront
   origin). Sweeps 1-2 from one corner; 3-4 from a main-diagonal corner of
   it; sweep 4 completes fully before 5-6 start at the opposite corner of the
   grid; 7-8 again from a diagonal corner (n_full = 2, n_diag = 2). *)
let sweep3d =
  v
    [
      sweep C11 `Down; sweep C11 `Up;
      sweep Cn1 `Down; sweep Cn1 `Up;
      sweep C1m `Down; sweep C1m `Up;
      sweep Cnm `Down; sweep Cnm `Up;
    ]

(* Chimaera (Figure 2(c)): a forward group and a backward group. Sweeps 1-2
   share a corner, 3 starts at a diagonal corner, 4 only once 3 has fully
   completed at the opposite corner; the backward group mirrors this
   (n_full = 4, n_diag = 2). *)
let chimaera =
  v
    [
      sweep C11 `Down; sweep C11 `Up;
      sweep Cn1 `Down; sweep C1m `Up;
      sweep Cn1 `Up; sweep Cn1 `Down;
      sweep Cnm `Up; sweep C11 `Down;
    ]

(* A synthetic schedule with the requested Table 3 gate counts, used to
   evaluate hypothetical sweep structures such as the pipelined-energy-group
   redesign of Section 5.5. Follow-gated sweeps are emitted as same-corner
   pairs; diagonal and full gates by moving to the corresponding corner. *)
let make ~nsweeps ~nfull ~ndiag =
  if nsweeps < 1 then invalid_arg "Schedule.make: nsweeps must be >= 1";
  if nfull < 1 then invalid_arg "Schedule.make: the last sweep always gates fully";
  if nfull + ndiag > nsweeps then
    invalid_arg "Schedule.make: nfull + ndiag must be <= nsweeps";
  let next_origin origin gate =
    match gate with
    | Follow -> origin
    | Full -> Proc_grid.opposite origin
    | Diagonal -> fst (Proc_grid.diagonals origin)
  in
  (* Gates for sweeps 1..nsweeps-1, then the implicit Full gate of the last
     sweep. Place the extra (nfull - 1) Full and the ndiag Diagonal gates
     first, then pad with Follow. *)
  let explicit =
    List.init (nfull - 1) (fun _ -> Full)
    @ List.init ndiag (fun _ -> Diagonal)
    @ List.init (nsweeps - nfull - ndiag) (fun _ -> Follow)
  in
  let rec build origin zdir = function
    | [] -> [ sweep origin zdir ]
    | g :: rest ->
        let flip = function `Up -> `Down | `Down -> `Up in
        sweep origin zdir :: build (next_origin origin g) (flip zdir) rest
  in
  v (build Proc_grid.C11 `Down explicit)

let pp_gate ppf = function
  | Follow -> Fmt.string ppf "follow"
  | Diagonal -> Fmt.string ppf "diagonal"
  | Full -> Fmt.string ppf "full"
