(** LogGP platform parameters (paper Table 2).

    All times are in microseconds and message sizes in bytes. The classic
    LogGP gap-per-message [g] is zero on the platforms modeled here, so it is
    not represented. *)

type offnode = {
  g : float;  (** G: per-byte transmission cost, us/byte *)
  l : float;  (** L: end-to-end network latency, us *)
  o : float;  (** o: send/receive software overhead, us *)
  o_h : float;  (** handshake processing overhead (negligible on the XT4) *)
  eager_limit : int;
      (** largest message size (bytes) sent eagerly; larger messages perform a
          rendezvous handshake before transmission *)
}
(** Off-node (inter-node) communication parameters. *)

type onchip = {
  g_copy : float;  (** per-byte cost of the small-message copy path *)
  g_dma : float;  (** per-byte cost of the large-message DMA path *)
  o_copy : float;  (** overhead before/after the message copies *)
  o_dma : float;  (** DMA setup cost; the paper's on-chip o = o_copy + o_dma *)
  eager_limit : int;  (** size above which the DMA path is used *)
}
(** On-chip (same multi-core node) communication parameters. *)

type t = {
  name : string;
  offnode : offnode;
  onchip : onchip;
  cores_per_node : int;
}
(** A complete platform description. *)

val onchip_o : onchip -> float
(** [onchip_o p] is the paper's on-chip overhead [o = o_copy + o_dma]. *)

val xt4_offnode : offnode
val xt4_onchip : onchip

val xt4 : t
(** The dual-core Cray XT4 of the paper, Table 2. *)

val sp2 : t
(** The IBM SP/2 of Sundaram-Stukel & Vernon, quoted in Section 3.1. *)

val bluegene_l : t
(** Approximate BlueGene/L parameters from public link specifications
    (the paper's reference [8] compares these machines); illustrative, for
    cross-platform what-if studies. *)

val red_storm : t
(** Approximate Cray Red Storm parameters; see {!bluegene_l}'s caveat. *)

val presets : t list

val with_cores_per_node : t -> int -> t
(** [with_cores_per_node t c] is [t] with [c] cores per node, used for the
    multi-core platform-design studies of Section 5.3. Raises
    [Invalid_argument] if [c < 1]. *)

val pp_offnode : offnode Fmt.t
val pp_onchip : onchip Fmt.t
val pp : t Fmt.t
