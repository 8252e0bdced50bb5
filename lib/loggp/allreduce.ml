(* Model of the MPI all-reduce execution time (paper equation 9).

   For P cores on nodes of C cores each, the all-reduce performs log2(P)
   pairwise-exchange stages; log2(C) of them can be satisfied on-chip and the
   remaining log2(P) - log2(C) go off-node. Each stage costs C times the
   end-to-end message time because the C cores of a node share the node's
   resources. In the special case C = 1 the model reduces to
   log2(P) * TotalComm, as noted in the paper. *)

let ceil_log2 n =
  if n < 1 then invalid_arg "Allreduce.ceil_log2";
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* All-reduce payloads are small (a handful of scalars reduced at the end of
   each iteration), well inside the eager/copy regime. *)
let default_msg_size = 8

let time ?(msg_size = default_msg_size) (t : Params.t) ~cores =
  if cores < 1 then invalid_arg "Allreduce.time: cores must be >= 1";
  let c = min t.cores_per_node cores in
  let stages_total = float_of_int (ceil_log2 cores) in
  let stages_onchip = float_of_int (ceil_log2 c) in
  let stages_offnode = Float.max 0.0 (stages_total -. stages_onchip) in
  let cf = float_of_int c in
  (stages_offnode *. cf *. Comm_model.total_offnode t.offnode msg_size)
  +. (stages_onchip *. cf *. Comm_model.total_onchip t.onchip msg_size)

(* Binomial-tree one-to-all and all-to-one collectives: log2(P) sequential
   message steps, the on-node stages on-chip. Used for LU-style codes that
   broadcast control values or reduce residuals without the full
   all-reduce. *)
let tree_time ?(msg_size = default_msg_size) (t : Params.t) ~cores =
  if cores < 1 then invalid_arg "Allreduce.tree_time: cores must be >= 1";
  let c = min t.cores_per_node cores in
  let stages_total = float_of_int (ceil_log2 cores) in
  let stages_onchip = float_of_int (ceil_log2 c) in
  let stages_offnode = Float.max 0.0 (stages_total -. stages_onchip) in
  (stages_offnode *. Comm_model.total_offnode t.offnode msg_size)
  +. (stages_onchip *. Comm_model.total_onchip t.onchip msg_size)
