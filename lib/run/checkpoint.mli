(** Versioned per-rank snapshots of wavefront state.

    The passive half of the recovery layer: a snapshot captures
    everything a rank needs to re-enter {!Program.run_rank} at a tile
    boundary — the resumable {!Substrate.position}, the accumulated
    solution block, the transport kernel's carried z-face, and per-peer
    message-sequence marks for the channel log. Substrates take
    snapshots at {!Substrate.S.tile_begin} when [Perturb.Recover.due]
    holds; interval [K = 0] disables checkpointing entirely. *)

type snapshot = {
  rank : int;
  version : int;  (** Monotonic per rank; higher is newer. *)
  wave : int;  (** Global wave index of the checkpointed position. *)
  position : Substrate.position;  (** Next tile step to execute. *)
  phi : float array;  (** The rank's accumulated solution block. *)
  zbuf : float array;  (** Transport z-face carried between tiles. *)
  zpos : int;  (** Plane frontier within the current sweep. *)
  sent : int array;  (** Per-destination-rank send sequence marks. *)
  recvd : int array;  (** Per-source-rank receive sequence marks. *)
}

type store
(** Where snapshots live. Ranks save concurrently from their own
    domains; stores synchronise internally and keep only the latest
    snapshot per rank. *)

val save : store -> snapshot -> unit
val latest : store -> rank:int -> snapshot option

val saves : store -> int
(** Total snapshots saved over the store's lifetime (across ranks). *)

val memory_store : unit -> store
(** An in-process store, the default for supervised runs. *)

val file_store : dir:string -> store
(** A store of one binary file per rank under [dir] (created if
    missing), atomically replaced on save. Files carry a magic/version
    header and are rejected if stale or foreign. *)
