(** The previous, Sweep3D-specific LogGP model of Sundaram-Stukel & Vernon
    (paper Table 4), used as a baseline for the plug-and-play model. One core
    per node. Times in microseconds. *)

open Wgrid

type inputs = {
  platform : Loggp.Params.t;
  grid : Data_grid.t;
  pgrid : Proc_grid.t;
  wg : float;  (** all-angles per-cell computation time (new convention) *)
  mmi : int;  (** angles computed before communicating *)
  mmo : int;  (** total angles per cell *)
  mk : int;  (** tile height in cells *)
  bytes_per_angle : float;
  sync_terms : bool;
      (** include the (m-1)L / (n-2)L handshake back-propagation terms that
          were significant on the SP/2 *)
}

val v :
  ?bytes_per_angle:float ->
  ?sync_terms:bool ->
  platform:Loggp.Params.t ->
  grid:Data_grid.t ->
  pgrid:Proc_grid.t ->
  wg:float ->
  mmi:int ->
  mmo:int ->
  mk:int ->
  unit ->
  inputs

type result = {
  w_block : float;  (** (s1) *)
  time_5_6 : float;  (** (s3) *)
  time_7_8 : float;  (** (s4) *)
  t_sweeps : float;  (** (s5): total time of the eight sweeps *)
}

val t_sweeps : inputs -> float
