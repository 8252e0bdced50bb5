(* The experiment registry: every table and figure of the paper's
   evaluation (plus this reproduction's extension studies), addressable by
   the DESIGN.md experiment id. Each experiment produces tables and, for
   the curve-shaped figures, an ASCII plot of the same sweep. *)

type scale = Quick | Full

type artifact = Table of Table.t | Plot of Plot.t

let to_valid_scale = function Quick -> Exp_valid.Quick | Full -> Exp_valid.Full

let tables ts = List.map (fun t -> Table t) ts

let all ?(scale = Quick) () =
  [
    ("tab3", fun () -> tables [ Exp_design.tab3 () ]);
    ( "fig3a",
      fun () ->
        [ Table (Exp_comm.fig3 Loggp.Comm_model.Off_node);
          Plot (Exp_plots.fig3 Loggp.Comm_model.Off_node) ] );
    ( "fig3b",
      fun () ->
        [ Table (Exp_comm.fig3 Loggp.Comm_model.On_chip);
          Plot (Exp_plots.fig3 Loggp.Comm_model.On_chip) ] );
    ("tab2", fun () -> tables [ Exp_comm.tab2 () ]);
    ( "eq9",
      fun () ->
        tables
          [ Exp_comm.eq9
              ~cores:
                (match scale with
                | Quick -> [ 4; 16; 64; 256; 1024 ]
                | Full -> [ 4; 16; 64; 256; 1024; 2048; 4096 ])
              () ] );
    ( "valid",
      fun () -> tables [ Exp_valid.validation ~scale:(to_valid_scale scale) () ] );
    ("tab4", fun () -> tables [ Exp_valid.tab4 () ]);
    ("sp2", fun () -> tables [ Exp_valid.sp2 () ]);
    ("fig5", fun () -> [ Table (Exp_design.fig5 ()); Plot (Exp_plots.fig5 ()) ]);
    ( "fig6",
      fun () ->
        [ Table
            (Exp_design.fig6
               ~sim_cores:
                 (match scale with Quick -> [ 1024 ] | Full -> [ 1024; 4096 ])
               ());
          Plot (Exp_plots.fig6 ()) ] );
    ("fig7a", fun () -> tables [ Exp_design.fig7a () ]);
    ("fig7b", fun () -> tables [ Exp_design.fig7b () ]);
    ("fig8", fun () -> [ Table (Exp_design.fig8 ()); Plot (Exp_plots.fig8 ()) ]);
    ("fig9", fun () -> tables [ Exp_design.fig9 () ]);
    ( "fig10",
      fun () -> [ Table (Exp_design.fig10 ()); Plot (Exp_plots.fig10 ()) ] );
    ( "fig11",
      fun () -> [ Table (Exp_design.fig11 ()); Plot (Exp_plots.fig11 ()) ] );
    ( "fig12",
      fun () -> [ Table (Exp_design.fig12 ()); Plot (Exp_plots.fig12 ()) ] );
    ("shmpi", fun () -> tables (Exp_real.shmpi_tables ()));
    (* Extensions beyond the paper: ablations, robustness, capacity, shape. *)
    ("noise", fun () -> tables [ Exp_ablation.noise () ]);
    ("balance", fun () -> tables [ Exp_ablation.balance () ]);
    ("hops", fun () -> tables [ Exp_ablation.hops () ]);
    ("contention", fun () -> tables [ Exp_ablation.contention () ]);
    ("simbreak", fun () -> tables [ Exp_ablation.simbreak () ]);
    ("pipe", fun () -> tables [ Exp_ablation.pipe () ]);
    ("sweeptimes", fun () -> tables [ Exp_ablation.sweeps () ]);
    ( "memory",
      fun () ->
        tables [ Exp_capacity.memory (); Exp_capacity.capacity_sizing () ] );
    ("shape", fun () -> tables [ Exp_shape.shape () ]);
    ( "platforms",
      fun () ->
        tables [ Exp_platforms.platforms (); Exp_platforms.htile_by_platform () ]
    );
    ("summary", fun () -> tables [ Exp_summary.summary () ]);
  ]

let ids ?scale () = List.map fst (all ?scale ())

let find ?scale id =
  List.assoc_opt (String.lowercase_ascii id) (all ?scale ())

let render_artifact ppf = function
  | Table t -> Table.render ppf t
  | Plot p -> Plot.render ppf p
