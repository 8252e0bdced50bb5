(* The ping-pong microbenchmark of paper Section 3, measured for real on the
   shared-memory substrate: two domains exchange a payload back and forth
   and we record half the average round-trip time per message size. Fitting
   the LogGP sub-models to this curve (with Loggp.Fit) instantiates the
   plug-and-play workflow on the machine this library is running on. *)

let floats_for_bytes bytes = max 1 ((bytes + 7) / 8)

let half_round_trip ?(rounds = 200) ?(batches = 5) ~size_bytes () =
  let payload = Array.make (floats_for_bytes size_bytes) 1.0 in
  let result =
    Runtime.run ~ranks:2 (fun comm rank ->
        let exchange () =
          if rank = 0 then begin
            Comm.send comm ~src:0 ~dst:1 payload;
            ignore (Comm.recv comm ~dst:0 ~src:1)
          end
          else begin
            ignore (Comm.recv comm ~dst:1 ~src:0);
            Comm.send comm ~src:1 ~dst:0 payload
          end
        in
        (* Warm up channel and scheduler. *)
        for _ = 1 to 10 do exchange () done;
        (* Best of [batches] timed batches, to suppress scheduler noise on
           oversubscribed machines. *)
        let best = ref infinity in
        for _ = 1 to batches do
          Comm.barrier comm ~rank;
          let start = Runtime.now_us () in
          for _ = 1 to rounds do exchange () done;
          best := Float.min !best (Runtime.now_us () -. start)
        done;
        !best)
  in
  let elapsed = Float.max result.values.(0) result.values.(1) in
  elapsed /. (2.0 *. float_of_int rounds)

let curve ?rounds ~sizes () =
  List.map (fun s -> (s, half_round_trip ?rounds ~size_bytes:s ())) sizes

(* Fit a LogGP model to a measured curve and package it as a platform usable
   directly with the plug-and-play model (all links on-chip).

   Real shared-memory transports are piecewise, like the paper's XT4 curves
   — here the knee is where payload copies outgrow the cache rather than an
   eager/rendezvous switch — so we first try the two-segment on-chip fit
   with a detected break, and fall back to a single relative-error-weighted
   segment when the curve has no usable break (fewer than two points per
   side, or a non-physical slope). *)
let fit_single points =
  let fpoints =
    List.map (fun (s, t) -> (float_of_int s, t, 1.0 /. (t *. t))) points
  in
  let g, intercept = Loggp.Fit.linreg_weighted fpoints in
  if g < 0.0 || intercept < 0.0 then
    invalid_arg "Pingpong.fit_platform: non-physical fit (negative G or o)";
  let o = Float.max 0.0 (intercept /. 2.0) in
  ({ g_copy = g; g_dma = g; o_copy = o; o_dma = 0.0; eager_limit = max_int }
    : Loggp.Params.onchip)

let fit_platform ?(name = "OCaml shared-memory") points =
  let onchip =
    match Loggp.Fit.fit_onchip points with
    | fitted, _
      when fitted.g_copy > 0.0 && fitted.g_dma > 0.0 && fitted.o_copy >= 0.0
           && fitted.o_dma >= 0.0 ->
        fitted
    | _ | (exception Invalid_argument _) -> fit_single points
  in
  let offnode : Loggp.Params.offnode =
    {
      g = onchip.g_dma;
      l = 0.0;
      o = onchip.o_copy +. (onchip.o_dma /. 2.0);
      o_h = 0.0;
      eager_limit = max_int;
    }
  in
  { Loggp.Params.name; offnode; onchip; cores_per_node = 1 }

(* The same microbenchmark signature the simulated transport exposes, so
   `wavefront fit` drives either through one interface. *)
let microbench () : (module Wrun.Substrate.MICROBENCH) =
  (module struct
    let name = "shared-memory ping-pong"
    let curve = curve
  end)
