(* The shared continuous-benchmarking suite: one list of named thunks
   covering every layer (closed-form model, simulator, dataflow
   validator, real kernels, observability), consumed both by `wavefront
   bench` and by bench/main.exe so the committed baseline and local runs
   measure the same work. Case names are stable identifiers — the
   baseline comparison matches on them — so renaming one is a deliberate
   baseline-breaking change. *)

open Wavefront_core

type case = {
  name : string;
  quick : bool;  (** part of the fast CI subset *)
  repeats : int option;  (** override the runner's repetition count *)
  f : unit -> unit;
}

(* Peak resident set of this process (VmHWM), MB; 0 where /proc is
   unavailable. The big-run cases dominate it, so recording it next to
   their wall-clock pins the batched engine's memory envelope too. The
   reader itself now lives in [Obs.Runtime] (every telemetry consumer
   shares it); this alias keeps the bench suite's surface unchanged. *)
let peak_rss_mb = Obs.Runtime.peak_rss_mb

(* How many domains the sharded scale case uses on this host — recorded
   in the report metadata so a baseline from a 1-core CI runner is not
   read as a multi-core regression. *)
let scale_domains = Domain.recommended_domain_count ()

let xt4 = Loggp.Params.xt4

let all () =
  let chimaera = Apps.Chimaera.p240 () in
  let sweep_app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
  let sim_machine = Xtsim.Machine.v xt4 (Wgrid.Proc_grid.of_cores 64) in
  (* The large-grid cases share one Sweep3D problem; the costs tables are
     built once outside the timed region. *)
  let pg_64k = Wgrid.Proc_grid.of_cores 65536 in
  let costs_64k =
    Wrun.Costs.loggp ~cmp:Wgrid.Cmp.single_core xt4 pg_64k sweep_app
  in
  let costs_64k_bus =
    Wrun.Costs.loggp ~model_bus:true
      ~cmp:(Wgrid.Cmp.of_cores_per_node 2)
      (Loggp.Params.with_cores_per_node xt4 2)
      pg_64k sweep_app
  in
  let pg_1m = Wgrid.Proc_grid.of_cores 1048576 in
  let costs_1m =
    Wrun.Costs.loggp ~cmp:Wgrid.Cmp.single_core xt4 pg_1m sweep_app
  in
  let phi = Array.make (16 * 16 * 16) 0.0 in
  let lu = Kernels.Lu_kernel.init_block ~nx:16 ~ny:16 ~nz:16 in
  (* A realistic trace to reconstruct: the analytic term schedule of a
     small Sweep3D, produced once outside the timed region. *)
  let timeline_spans =
    let pg = Wgrid.Proc_grid.of_cores 16 in
    let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 16) in
    let costs = Wrun.Costs.loggp ~cmp:Wgrid.Cmp.single_core xt4 pg app in
    let tr = Obs.Tracer.create () in
    ignore (Wrun.Batched.run ~obs:tr ~costs pg app);
    Obs.Tracer.spans tr
  in
  let record_tr = Obs.Tracer.create ~capacity:1024 () in
  (* A synthetic 8192-rank idle-wave trace: a tied pipeline with one pulse
     mid-run and a decaying stall front on every downstream rank — large
     enough that the detector's cell scans, front thresholding and fits
     dominate, built once outside the timed region. *)
  let idlewave_tl =
    let ranks = 8192 and waves = 32 in
    let period = 10.0 and hop = 12.0 in
    let o_rank = ranks / 2 and o_wave = waves / 2 in
    let cell r w : Obs.Timeline.cell =
      let t_start =
        (float_of_int r *. hop) +. (float_of_int w *. period)
      in
      let hit = w = o_wave && r > o_rank in
      let wait =
        if hit then 400.0 *. Float.exp (-0.0005 *. float_of_int (r - o_rank))
        else 1.0
      in
      let compute = if r = o_rank && w = o_wave then 508.0 else 8.0 in
      {
        Obs.Timeline.t_start;
        t_end = t_start +. compute +. wait +. 2.0;
        compute;
        send = 1.0;
        recv = 1.0;
        wait;
        other = 0.0;
        idle = 0.0;
        spans = 4;
      }
    in
    {
      Obs.Timeline.ranks;
      waves;
      cells = Array.init ranks (fun r -> Array.init (waves + 1) (cell r));
      t0 = 0.0;
      start = Array.init ranks (fun r -> float_of_int r *. hop);
      finish =
        Array.init ranks (fun r ->
            (float_of_int r *. hop) +. (float_of_int (waves + 1) *. period));
      dropped = 0;
    }
  in
  [
    {
      name = "model/iteration-P1024";
      quick = true;
      repeats = None;
      f =
        (let cfg = Plugplay.config xt4 ~cores:1024 in
         fun () -> ignore (Plugplay.iteration chimaera cfg));
    };
    {
      name = "model/iteration-P16384";
      quick = false;
      repeats = None;
      f =
        (let cfg = Plugplay.config xt4 ~cores:16384 in
         fun () -> ignore (Plugplay.iteration chimaera cfg));
    };
    {
      name = "model/allreduce-eq9";
      quick = true;
      repeats = None;
      f = (fun () -> ignore (Loggp.Allreduce.time xt4 ~cores:8192));
    };
    {
      name = "sim/wavefront-64c-32^3";
      quick = true;
      repeats = None;
      f = (fun () -> ignore (Xtsim.Wavefront_sim.run sim_machine sweep_app));
    };
    {
      name = "dataflow/validate-P1024";
      quick = true;
      repeats = None;
      f =
        (let pg = Wgrid.Proc_grid.of_cores 1024 in
         fun () ->
           let o = Wrun.Dataflow.run pg sweep_app in
           assert o.completed);
    };
    {
      name = "kernels/transport-16^3";
      quick = true;
      repeats = None;
      f =
        (fun () ->
          Array.fill phi 0 (Array.length phi) 0.0;
          Kernels.Transport.sweep_sequential Kernels.Transport.default
            ~nx:16 ~ny:16 ~nz:16 ~dir:(1, 1, 1) ~htile:4 ~phi);
    };
    {
      name = "kernels/lu-16^3";
      quick = false;
      repeats = None;
      f = (fun () -> Kernels.Lu_kernel.sweep_block lu ~nx:16 ~ny:16 ~nz:16);
    };
    {
      name = "obs/timeline-reconstruct";
      quick = true;
      repeats = None;
      f = (fun () -> ignore (Obs.Timeline.of_spans timeline_spans));
    };
    {
      name = "obs/idlewave-detect-8192r";
      quick = true;
      repeats = None;
      f =
        (fun () ->
          let d = Obs.Idle_wave.detect idlewave_tl in
          assert (d.origin <> None));
    };
    {
      name = "obs/tracer-record";
      quick = true;
      repeats = None;
      f =
        (fun () ->
          Obs.Tracer.record record_tr ~rank:0 ~start:0.0 ~dur:1.0 "x");
    };
    (* The wave-batched engine at scale: the baseline pins its 64k-rank
       and million-rank wall-clock. Few repetitions — each call is
       seconds, and the medians move little. *)
    {
      name = "run/batched-64k";
      quick = true;
      repeats = Some 3;
      f =
        (fun () ->
          let o = Wrun.Batched.run ~costs:costs_64k pg_64k sweep_app in
          assert o.completed);
    };
    (* The same 64k sweep with the Table-6 bus layer on (2 cores/node):
       the gap against run/batched-64k is the closed-form contention
       arithmetic's own cost. *)
    {
      name = "run/batched-bus-64k";
      quick = true;
      repeats = Some 3;
      f =
        (fun () ->
          let o = Wrun.Batched.run ~costs:costs_64k_bus pg_64k sweep_app in
          assert o.completed;
          assert (o.bus_wait > 0.0));
    };
    (* Row-band domain sharding of the identical run: on a multi-core
       host this should beat run/batched-bus-64k wall-clock while staying
       bitwise-identical (the determinism tests pin that part). *)
    {
      name = "run/batched-bus-64k-sharded";
      quick = true;
      repeats = Some 3;
      f =
        (fun () ->
          let o =
            Wrun.Batched.run ~domains:scale_domains ~costs:costs_64k_bus
              pg_64k sweep_app
          in
          assert o.completed);
    };
    {
      name = "run/batched-1m";
      quick = false;
      repeats = Some 3;
      f =
        (fun () ->
          let o = Wrun.Batched.run ~costs:costs_1m pg_1m sweep_app in
          assert o.completed);
    };
  ]

let cases ?(quick = false) () =
  List.filter (fun c -> (not quick) || c.quick) (all ())
