(** A batch of finished timeline cells in flat arrays — the form in
    which the batched engine hands cells to its sink, so that logging
    and folding a cell allocates nothing.

    Cell [i] of a batch [b], for [0 <= i < b.n], is

    - [b.ints.(3i)], [b.ints.(3i + 1)], [b.ints.(3i + 2)]: its rank,
      column and span count;
    - [b.floats.(6i)] to [b.floats.(6i + 5)]: its [t_start], [t_end],
      [compute], [send], [recv] and [wait].

    The producer's spans partition every window, so a cell's [idle] is
    0 and its [other] is the remainder
    [t_end -. t_start -. compute -. send -. recv -. wait], subtracted
    in that order ({!cell} builds the {!Timeline.cell}). A producer
    writes the arrays directly — a helper taking six floats would box
    them — calling {!grow} first when [3 * (n + 1)] exceeds the length
    of [ints]. *)

type t = {
  mutable n : int;  (** cells held *)
  mutable ints : int array;  (** 3 per cell: rank, column, spans *)
  mutable floats : float array;
      (** 6 per cell: t_start, t_end, compute, send, recv, wait *)
  pad0 : int;
  pad1 : int;
  pad2 : int;
  pad3 : int;
  pad4 : int;
  pad5 : int;
  pad6 : int;
  pad7 : int;
      (** Padding: batches filled by different domains never share a
          cache line between their mutable fields. *)
}

val create : unit -> t
(** An empty batch with room for 64 cells. *)

val grow : t -> unit
(** Double both arrays' capacity, keeping the cells. *)

val rank : t -> int -> int
val col : t -> int -> int

val cell : t -> int -> Timeline.cell
(** Cell [i] as a record (allocates). *)
