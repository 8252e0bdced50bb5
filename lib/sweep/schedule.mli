(** Sweep structures per iteration (paper Figure 2 and Section 4.1).

    An iteration is an ordered list of sweeps, each originating at a corner
    of the 2-D processor grid. The gate of sweep [k] — what must complete
    before sweep [k+1] (or the iteration end) begins — is derived from where
    the next sweep originates, and the gate counts are the model inputs
    [nfull] and [ndiag] of Table 3. *)

open Wgrid

type gate =
  | Follow
      (** next sweep starts at the same corner as soon as the origin
          processor finishes its stack (e.g. Sweep3D sweeps 1 to 2) *)
  | Diagonal
      (** next sweep waits for completion at the second corner processor on
          the wavefronts' main diagonal (e.g. Sweep3D sweeps 2 to 3) *)
  | Full
      (** next sweep waits for full completion at the opposite corner
          (e.g. LU sweeps 1 to 2, Chimaera sweeps 3 to 4) *)

type sweep = { origin : Proc_grid.corner; zdir : [ `Up | `Down ] }
type t

val v : sweep list -> t
(** Raises [Invalid_argument] on an empty list. *)

val sweep : Proc_grid.corner -> [ `Up | `Down ] -> sweep
val sweeps : t -> sweep list
val nsweeps : t -> int

val gates : t -> gate list
(** One gate per sweep; the last sweep's gate is always [Full] because the
    iteration ends only when it completes everywhere. *)

val gate_between : sweep -> sweep -> gate

type counts = { nsweeps : int; nfull : int; ndiag : int }

val counts : t -> counts
(** The Table 3 structural parameters of the schedule. *)

val lu : t
(** Figure 2(a): 2 sweeps, [nfull = 2], [ndiag = 0]. *)

val sweep3d : t
(** Figure 2(b): 8 sweeps, [nfull = 2], [ndiag = 2]. *)

val chimaera : t
(** Figure 2(c): 8 sweeps, [nfull = 4], [ndiag = 2]. *)

val make : nsweeps:int -> nfull:int -> ndiag:int -> t
(** [make ~nsweeps ~nfull ~ndiag] is a synthetic schedule realizing the given
    Table 3 gate counts, for hypothetical sweep structures such as the
    pipelined-energy-group redesign of Section 5.5. Raises
    [Invalid_argument] if [nfull < 1] (the last sweep always gates fully) or
    [nfull + ndiag > nsweeps]. *)

val pp_gate : gate Fmt.t
