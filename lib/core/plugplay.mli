(** The plug-and-play re-usable LogGP model of wavefront computations
    (paper Section 4, Tables 5 and 6).

    Given the application parameters of {!App_params} and a platform
    configuration, [iteration] evaluates equations (r1a)-(r5) — with the
    Table 6 multi-core locality and shared-bus contention extensions — and
    returns the per-iteration critical-path time and its pieces. All times
    are in microseconds. The module holds one implementation of the
    pipeline-fill recurrence, {!Eval}; [iteration] and everything built on
    it go through it. *)

open Wgrid

type config = {
  platform : Loggp.Params.t;
  cmp : Cmp.t;  (** node core rectangle (Table 6) *)
  pgrid : Proc_grid.t;  (** the m x n grid of cores *)
  contention : bool;  (** apply the shared-bus interference terms *)
  sync_terms : bool;
      (** include the Table-4-style handshake back-propagation terms
          ((m-1)L, (n-2)L per tile); needed on high-latency platforms like
          the SP/2, negligible on the XT4 (paper Section 4.2) *)
}

val config :
  ?cmp:Cmp.t ->
  ?pgrid:Proc_grid.t ->
  ?contention:bool ->
  ?sync_terms:bool ->
  Loggp.Params.t ->
  cores:int ->
  config
(** [config platform ~cores] builds a configuration with a near-square
    processor grid over [cores] cores and the platform's natural core
    rectangle. Raises [Invalid_argument] if an explicit [pgrid] disagrees
    with [cores]. *)

type result = {
  w : float;  (** (r1b): work per tile after the receives *)
  w_pre : float;  (** (r1a): work per tile before the receives *)
  msg_ew : int;  (** east/west boundary message, bytes *)
  msg_ns : int;
  t_diagfill : float;  (** (r3a): fill time to the main-diagonal corner *)
  t_fullfill : float;  (** (r3b): fill time to the opposite corner *)
  t_stack : float;  (** (r4): time to process a stack of tiles *)
  t_nonwavefront : float;
  t_iteration : float;  (** (r5) *)
}

val iteration : App_params.t -> config -> result
(** {!Eval.create}, {!Eval.run}, {!Eval.result}. *)

val time_per_iteration : App_params.t -> config -> float
(** Just the (r5) total of {!iteration}. *)

val sweep_times : App_params.t -> config -> (Sweeps.Schedule.gate * float) list
(** Per-sweep critical-path contributions implied by (r5); they sum to
    [t_iteration - t_nonwavefront]. *)

val time_per_time_step : App_params.t -> config -> float
(** [iterations * t_iteration]. *)

val contention_coeffs : Cmp.t -> float * float
(** [(coeff_ew, coeff_ns)]: how many interference terms [I] are added to each
    east/west and north/south operation of (r4). Generalizes Table 6's
    1x2 / 2x2 / 2x4 rows; exposed for tests and ablations. *)

val nonwavefront_time : App_params.t -> config -> float

type components = {
  total : float;
  computation : float;
  communication : float;
}

val components : App_params.t -> config -> components
(** Critical-path breakdown used for the bottleneck study (Figure 11):
    [computation] is the model evaluated with all communication costs zeroed,
    [communication] the remainder. *)

val zero_comm_platform : Loggp.Params.t -> Loggp.Params.t
val pp_result : result Fmt.t

(** The evaluator behind {!iteration}, and the only implementation of
    (r2a)/(r2b). [create] computes every closed-form term outright —
    (r1) work, the message sizes, (r4), Tnonwavefront — and builds the
    per-column and per-row (r2b) communication tables. The node
    rectangle tiles the grid, so it prices one period of links (the
    [cx] E links and [cy] S links of one node) and copies that period
    along the row and the column: O(cols + rows) storage, [cx + cy]
    locality probes, no recurrence. [run] executes the pipeline-fill
    recurrence over a single StartP row of [cols] floats updated in
    place. Past the first row it evaluates the rows in blocks of four,
    row j+r one column behind row j+r-1, so the four rows' dependency
    chains overlap; the rows left over go one at a time. Every cell does
    the equations' additions in their order, and [run] allocates zero
    minor-heap words per call (the telemetry gate pins it at exactly 0
    words); results are read through the accessors after a [run]. The
    test suite holds it, bit for bit, to a cell-by-cell transcription of
    the equations. Not synchronized: one evaluator per domain. *)
module Eval : sig
  type t

  val create : App_params.t -> config -> t
  val run : t -> unit

  val t_iteration : t -> float
  val t_diagfill : t -> float
  val t_fullfill : t -> float

  val result : t -> result
  (** The full {!result} of the last [run] (allocates; call it outside
      any measured window). *)
end
