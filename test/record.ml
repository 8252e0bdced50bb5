(* Message-sequence recording: wrap any substrate so each rank's sequence
   of communication steps is captured in program order. Two backends
   executing the same program must produce identical per-rank sequences —
   the cross-substrate oracle the differential tests check.

   Each rank appends only to its own slot, so the wrapper is safe on both
   single-threaded substrates (simulator, dataflow) and one-domain-per-rank
   runtimes. *)

type event =
  | Send of { peer : int; axis : Wrun.Substrate.axis; tile : int }
  | Recv of { peer : int; axis : Wrun.Substrate.axis; tile : int; bytes : int }
  | Boundary of { axis : Wrun.Substrate.axis }
  | Allreduce of { count : int; msg_size : int }
  | Halo of { dst : int; src : int; bytes : int }
  | Finish

type t = event list ref array

let create ~ranks : t = Array.init ranks (fun _ -> ref [])
let events (t : t) rank = List.rev !(t.(rank))
let push (t : t) rank e = t.(rank) := e :: !(t.(rank))

module Wrap (S : Wrun.Substrate.S) = struct
  type nonrec t = t * S.t
  type payload = S.payload

  let boundary (r, s) ~rank ~axis ~h =
    push r rank (Boundary { axis });
    S.boundary s ~rank ~axis ~h

  let recv (r, s) ~rank ~src ~axis ~tile ~h ~bytes =
    push r rank (Recv { peer = src; axis; tile; bytes });
    S.recv s ~rank ~src ~axis ~tile ~h ~bytes

  let send (r, s) ~rank ~dst ~axis ~tile payload =
    push r rank (Send { peer = dst; axis; tile });
    S.send s ~rank ~dst ~axis ~tile payload

  let precompute (_, s) ~rank ~tile = S.precompute s ~rank ~tile

  let compute (_, s) ~rank ~dir ~tile ~h ~x ~y =
    S.compute s ~rank ~dir ~tile ~h ~x ~y

  let sweep_begin (_, s) ~rank ~sweep ~dir = S.sweep_begin s ~rank ~sweep ~dir

  (* Not recorded: checkpointing is a substrate-local concern and must not
     perturb the cross-backend sequence oracle. *)
  let tile_begin (_, s) ~rank ~iteration ~sweep ~tile ~wave =
    S.tile_begin s ~rank ~iteration ~sweep ~tile ~wave

  let local_work (_, s) ~rank us = S.local_work s ~rank us

  let halo (r, s) ~rank ~dst ~src ~bytes =
    push r rank (Halo { dst; src; bytes });
    S.halo s ~rank ~dst ~src ~bytes

  let allreduce (r, s) ~rank ~count ~msg_size =
    push r rank (Allreduce { count; msg_size });
    S.allreduce s ~rank ~count ~msg_size

  let finish (r, s) ~rank =
    push r rank Finish;
    S.finish s ~rank
end
