(* Bounded-memory streaming fold of timeline cells.

   The batched engine visits each (rank, column) once per iteration and
   hands the finished cells over in flat batches ([Cell_batch]); at a
   million ranks the dense [Timeline.of_spans] grid is out of reach, so
   this accumulator folds the stream into (a) a rank-bucketized,
   wave-bucketized heatmap grid whose bucket means are exactly what
   [Timeline.render] would have displayed of the dense grid, and (b)
   exact full-resolution per-column totals (the wave axis is short —
   sums over a bucket's member ranks are exact even though its mean cell
   is a summary). Memory is O(rank_buckets * col_buckets + waves),
   independent of the rank count.

   A batch is folded in place, cell by cell, with no record built per
   cell. Cells for the same (rank, column) across iterations merge
   additively with window union — the producer's contract. The fold is
   not synchronized: the batched engine calls the sink on its calling
   domain only, in the order of a 1-domain run, whatever its domain
   count, so the float sums come out bitwise identical for every domain
   count. *)

(* The bucket grid interleaves each bucket's fields, so folding a cell
   touches one bucket's two cache lines rather than one line in each of
   nine grid-sized arrays: cells arrive rank by rank along a diagonal,
   and consecutive cells land in different buckets. The span and member
   counts are float sums of small integers, exact far past any run's
   cell count, so they share the bucket's lines too. *)
let stride = 9
let f_compute = 0
let f_send = 1
let f_recv = 2
let f_wait = 3
let f_other = 4
let f_tmin = 5
let f_tmax = 6
let f_spans = 7
let f_members = 8

type t = {
  ranks : int;
  waves : int;
  rank_buckets : int;  (* heatmap rows *)
  wave_buckets : int;  (* heatmap wavefront columns (epilogue extra) *)
  (* bucket grid, bucket [i = rb * (wave_buckets + 1) + cb]: per-metric
     sums, the window envelope and the span and member counts at
     [grid.(stride * i + f)] for each field offset [f]. The grid is not
     initialized: [seen] marks the buckets whose first member has
     arrived, their fields are zeroed then, and readers skip the rest. *)
  grid : float array;
  seen : Bytes.t;
  (* exact per-column totals, index [col] with [waves] = epilogue *)
  col_compute : float array;
  col_send : float array;
  col_recv : float array;
  col_wait : float array;
  col_other : float array;
  col_width : float array;
  col_cells : int array;
  (* per-rank-bucket run envelope *)
  b_start : float array;
  b_finish : float array;
  mutable cells : int;
}

let create ?(max_rank_buckets = 512) ?(max_wave_buckets = 256) ~ranks ~waves
    () =
  if ranks < 1 || waves < 1 then invalid_arg "Timeline_stream.create";
  let rank_buckets = min ranks (max 1 max_rank_buckets) in
  let wave_buckets = min waves (max 1 max_wave_buckets) in
  let ncells = rank_buckets * (wave_buckets + 1) in
  {
    ranks;
    waves;
    rank_buckets;
    wave_buckets;
    grid = Array.create_float (stride * ncells);
    seen = Bytes.make ncells '\000';
    col_compute = Array.make (waves + 1) 0.0;
    col_send = Array.make (waves + 1) 0.0;
    col_recv = Array.make (waves + 1) 0.0;
    col_wait = Array.make (waves + 1) 0.0;
    col_other = Array.make (waves + 1) 0.0;
    col_width = Array.make (waves + 1) 0.0;
    col_cells = Array.make (waves + 1) 0;
    b_start = Array.make rank_buckets infinity;
    b_finish = Array.make rank_buckets neg_infinity;
    cells = 0;
  }

let rank_bucket t rank = rank * t.rank_buckets / t.ranks

let wave_bucket t col =
  if col >= t.waves then t.wave_buckets else col * t.wave_buckets / t.waves

let rank_bucket_bounds t rb =
  let lo = (rb * t.ranks + t.rank_buckets - 1) / t.rank_buckets in
  (* first rank mapping to rb .. last: inverse of [rank_bucket] *)
  let lo = if rank_bucket t lo = rb then lo else lo + 1 in
  let hi = ((rb + 1) * t.ranks - 1) / t.rank_buckets in
  let hi = if rank_bucket t hi = rb then hi else hi - 1 in
  (lo, hi)

let wave_bucket_bounds t cb =
  if cb >= t.wave_buckets then (t.waves, t.waves)
  else begin
    let lo = cb * t.waves / t.wave_buckets in
    let lo = if wave_bucket t lo = cb then lo else lo + 1 in
    let hi = ((cb + 1) * t.waves - 1) / t.wave_buckets in
    let hi = if wave_bucket t hi = cb then hi else hi - 1 in
    (lo, hi)
  end

(* A bucket's fields are zeroed when its first member arrives. The
   cells' idle time is 0 ([Cell_batch]), so the grid keeps no idle sums.
   Each cell is counted as it is folded, so a stray cell leaves the ones
   before it folded and counted. *)
let sink t (b : Cell_batch.t) =
  let ints = b.ints and fl = b.floats and g = t.grid in
  for c = 0 to b.n - 1 do
    let rank = ints.(3 * c) and col = ints.((3 * c) + 1) in
    if rank < 0 || rank >= t.ranks || col < 0 || col > t.waves then
      invalid_arg "Timeline_stream.sink: cell out of range";
    let spans = ints.((3 * c) + 2) and f = 6 * c in
    let t_start = fl.(f) and t_end = fl.(f + 1) in
    let compute = fl.(f + 2) and send = fl.(f + 3) in
    let recv = fl.(f + 4) and wait = fl.(f + 5) in
    let other = t_end -. t_start -. compute -. send -. recv -. wait in
    let rb = rank_bucket t rank in
    let i = (rb * (t.wave_buckets + 1)) + wave_bucket t col in
    (* [i] is a bucket: the checks above bound rank and col. Checked
       reads of [seen] made the fold measurably slower. *)
    let first = Bytes.unsafe_get t.seen i = '\000' and o = stride * i in
    if first then begin
      Bytes.unsafe_set t.seen i '\001';
      Array.fill g o stride 0.0
    end;
    g.(o + f_spans) <- g.(o + f_spans) +. float_of_int spans;
    g.(o + f_members) <- g.(o + f_members) +. 1.0;
    g.(o + f_compute) <- g.(o + f_compute) +. compute;
    g.(o + f_send) <- g.(o + f_send) +. send;
    g.(o + f_recv) <- g.(o + f_recv) +. recv;
    g.(o + f_wait) <- g.(o + f_wait) +. wait;
    g.(o + f_other) <- g.(o + f_other) +. other;
    if first || t_start < g.(o + f_tmin) then g.(o + f_tmin) <- t_start;
    if first || t_end > g.(o + f_tmax) then g.(o + f_tmax) <- t_end;
    t.col_compute.(col) <- t.col_compute.(col) +. compute;
    t.col_send.(col) <- t.col_send.(col) +. send;
    t.col_recv.(col) <- t.col_recv.(col) +. recv;
    t.col_wait.(col) <- t.col_wait.(col) +. wait;
    t.col_other.(col) <- t.col_other.(col) +. other;
    t.col_width.(col) <- t.col_width.(col) +. (t_end -. t_start);
    t.col_cells.(col) <- t.col_cells.(col) + 1;
    if t_start < t.b_start.(rb) then t.b_start.(rb) <- t_start;
    if t_end > t.b_finish.(rb) then t.b_finish.(rb) <- t_end;
    t.cells <- t.cells + 1
  done

let gf t i f = t.grid.((stride * i) + f)
let spans_of t i = int_of_float (gf t i f_spans)

let count_of t i =
  if Bytes.get t.seen i = '\000' then 0 else int_of_float (gf t i f_members)

let cells t = t.cells
let rank_buckets t = t.rank_buckets
let wave_buckets t = t.wave_buckets

let column_total t (m : Timeline.metric) col =
  match m with
  | Compute -> t.col_compute.(col)
  | Send -> t.col_send.(col)
  | Recv -> t.col_recv.(col)
  | Wait -> t.col_wait.(col)
  | Idle -> 0.0
  | Busy ->
      t.col_compute.(col) +. t.col_send.(col) +. t.col_recv.(col)
      +. t.col_other.(col)
  | Total -> t.col_width.(col)

let column_cells t col = t.col_cells.(col)

(* The bucket-mean timeline: rows are rank buckets, columns wave
   buckets; each cell is the mean decomposition of the bucket's member
   cells over the union window — what [Timeline.render] displays of the
   dense grid. *)
let to_timeline t : Timeline.t =
  let ncb = t.wave_buckets + 1 in
  let cell_of i =
    let n = count_of t i in
    if n = 0 then Timeline.zero_cell 0.0
    else
      let fn = float_of_int n in
      {
        Timeline.t_start = gf t i f_tmin;
        t_end = gf t i f_tmax;
        compute = gf t i f_compute /. fn;
        send = gf t i f_send /. fn;
        recv = gf t i f_recv /. fn;
        wait = gf t i f_wait /. fn;
        other = gf t i f_other /. fn;
        idle = 0.0;
        spans = spans_of t i;
      }
  in
  let cells =
    Array.init t.rank_buckets (fun rb ->
        Array.init ncb (fun cb -> cell_of ((rb * ncb) + cb)))
  in
  let start =
    Array.map (fun s -> if s = infinity then 0.0 else s) t.b_start
  in
  let finish =
    Array.map (fun f -> if f = neg_infinity then 0.0 else f) t.b_finish
  in
  let t0 = Array.fold_left Float.min infinity start in
  {
    Timeline.ranks = t.rank_buckets;
    waves = t.wave_buckets;
    cells;
    t0 = (if t0 = infinity then 0.0 else t0);
    start;
    finish;
    dropped = 0;
  }

(* --- chunked export: bucket rows, sums not means, flushed every few
   rows so a million-cell fold never builds one giant string --- *)

let schema = "wavefront-timeline-stream/v1"

let flush_every = 64

let emit_csv t out =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "rank_lo,rank_hi,wave_lo,wave_hi,cells,t_start,t_end,compute,send,recv,\
     wait,other,idle,spans\n";
  let rows = ref 0 in
  for rb = 0 to t.rank_buckets - 1 do
    for cb = 0 to t.wave_buckets do
      let i = (rb * (t.wave_buckets + 1)) + cb in
      if count_of t i > 0 then begin
        let rlo, rhi = rank_bucket_bounds t rb in
        let wlo, whi = wave_bucket_bounds t cb in
        Buffer.add_string b
          (Printf.sprintf
             "%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n"
             rlo rhi
             (if wlo = t.waves then -1 else wlo)
             (if whi = t.waves then -1 else whi)
             (count_of t i) (gf t i f_tmin) (gf t i f_tmax)
             (gf t i f_compute) (gf t i f_send) (gf t i f_recv)
             (gf t i f_wait) (gf t i f_other) 0.0
             (spans_of t i));
        incr rows;
        if !rows mod flush_every = 0 then begin
          out (Buffer.contents b);
          Buffer.clear b
        end
      end
    done
  done;
  if Buffer.length b > 0 then out (Buffer.contents b)

let emit_json ?(label = "") t out =
  let b = Buffer.create 8192 in
  let esc s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
           | c when Char.code c < 0x20 ->
               Printf.sprintf "\\u%04x" (Char.code c)
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"%s\",\"label\":\"%s\",\"ranks\":%d,\"waves\":%d,\
        \"rank_buckets\":%d,\"wave_buckets\":%d,\"cells\":%d,\"buckets\":["
       schema (esc label) t.ranks t.waves t.rank_buckets t.wave_buckets
       t.cells);
  let first = ref true and rows = ref 0 in
  for rb = 0 to t.rank_buckets - 1 do
    for cb = 0 to t.wave_buckets do
      let i = (rb * (t.wave_buckets + 1)) + cb in
      if count_of t i > 0 then begin
        let rlo, rhi = rank_bucket_bounds t rb in
        let wlo, whi = wave_bucket_bounds t cb in
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf
             "{\"rank_lo\":%d,\"rank_hi\":%d,\"wave_lo\":%d,\"wave_hi\":%d,\
              \"cells\":%d,\"t_start\":%.6f,\"t_end\":%.6f,\
              \"compute\":%.6f,\"send\":%.6f,\"recv\":%.6f,\"wait\":%.6f,\
              \"other\":%.6f,\"idle\":%.6f,\"spans\":%d}"
             rlo rhi
             (if wlo = t.waves then -1 else wlo)
             (if whi = t.waves then -1 else whi)
             (count_of t i) (gf t i f_tmin) (gf t i f_tmax)
             (gf t i f_compute) (gf t i f_send) (gf t i f_recv)
             (gf t i f_wait) (gf t i f_other) 0.0
             (spans_of t i));
        incr rows;
        if !rows mod flush_every = 0 then begin
          out (Buffer.contents b);
          Buffer.clear b
        end
      end
    done
  done;
  Buffer.add_string b "],\"columns\":[";
  let first = ref true in
  for col = 0 to t.waves do
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b
      (Printf.sprintf
         "{\"wave\":%d,\"cells\":%d,\"compute\":%.6f,\"send\":%.6f,\
          \"recv\":%.6f,\"wait\":%.6f,\"other\":%.6f,\"idle\":%.6f,\
          \"width\":%.6f}"
         (if col = t.waves then -1 else col)
         t.col_cells.(col) t.col_compute.(col) t.col_send.(col)
         t.col_recv.(col) t.col_wait.(col) t.col_other.(col)
         (column_total t Idle col) t.col_width.(col))
  done;
  Buffer.add_string b "]}";
  out (Buffer.contents b)
