(* ASCII line/scatter plots for the experiment harness: the paper's
   artifacts are figures, and a quick visual check of curve shapes (knees,
   crossovers, minima) is worth more than rows of numbers. Multiple series
   share one canvas; axes can be logarithmic. *)

type series = { label : string; points : (float * float) list }

type t = {
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
  log_x : bool;
  log_y : bool;
  width : int;
  height : int;
}

let v ?(log_x = false) ?(log_y = false) ?(width = 72) ?(height = 20) ~title
    ~x_label ~y_label series =
  if width < 16 || height < 4 then invalid_arg "Plot.v: canvas too small";
  if series = [] then invalid_arg "Plot.v: no series";
  List.iter
    (fun s ->
      if s.points = [] then invalid_arg "Plot.v: empty series";
      if log_x && List.exists (fun (x, _) -> x <= 0.0) s.points then
        invalid_arg "Plot.v: log x-axis with non-positive x";
      if log_y && List.exists (fun (_, y) -> y <= 0.0) s.points then
        invalid_arg "Plot.v: log y-axis with non-positive y")
    series;
  { title; x_label; y_label; series; log_x; log_y; width; height }

let series ~label points =
  { label; points = List.map (fun (x, y) -> (float_of_int x, y)) points }

let markers = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

let render ppf t =
  let tx v = if t.log_x then log10 v else v in
  let ty v = if t.log_y then log10 v else v in
  let all = List.concat_map (fun s -> s.points) t.series in
  let xs = List.map (fun (x, _) -> tx x) all in
  let ys = List.map (fun (_, y) -> ty y) all in
  let fold f = function [] -> 0.0 | h :: r -> List.fold_left f h r in
  let x0 = fold Float.min xs and x1 = fold Float.max xs in
  let y0 = fold Float.min ys and y1 = fold Float.max ys in
  let xr = if x1 -. x0 <= 0.0 then 1.0 else x1 -. x0 in
  let yr = if y1 -. y0 <= 0.0 then 1.0 else y1 -. y0 in
  let grid = Array.make_matrix t.height t.width ' ' in
  let plot_point marker (x, y) =
    let cx =
      int_of_float
        (Float.round ((tx x -. x0) /. xr *. float_of_int (t.width - 1)))
    in
    let cy =
      int_of_float
        (Float.round ((ty y -. y0) /. yr *. float_of_int (t.height - 1)))
    in
    (* Row 0 is the top of the canvas. *)
    let row = t.height - 1 - cy in
    if grid.(row).(cx) = ' ' then grid.(row).(cx) <- marker
  in
  List.iteri
    (fun k s -> List.iter (plot_point markers.(k mod Array.length markers)) s.points)
    t.series;
  Fmt.pf ppf "@.%s@." t.title;
  let y_tick row =
    let frac = float_of_int (t.height - 1 - row) /. float_of_int (t.height - 1) in
    let v = y0 +. (frac *. yr) in
    if t.log_y then 10.0 ** v else v
  in
  Array.iteri
    (fun row line ->
      let label =
        if row = 0 || row = t.height - 1 || row = t.height / 2 then
          Printf.sprintf "%10.3g |" (y_tick row)
        else Printf.sprintf "%10s |" ""
      in
      Fmt.pf ppf "%s%s@." label (String.init t.width (Array.get line)))
    grid;
  Fmt.pf ppf "%10s +%s@." "" (String.make t.width '-');
  let x_at frac =
    let v = x0 +. (frac *. xr) in
    if t.log_x then 10.0 ** v else v
  in
  let x_min = Printf.sprintf "%.3g" (x_at 0.0) in
  Fmt.pf ppf "%10s  %s%*s%.3g   (%s vs %s%s)@." "" x_min
    (max 1 (t.width - String.length x_min - 4))
    "" (x_at 1.0) t.y_label t.x_label
    (match (t.log_x, t.log_y) with
    | true, true -> ", log-log"
    | true, false -> ", log x"
    | false, true -> ", log y"
    | false, false -> "");
  List.iteri
    (fun k s ->
      Fmt.pf ppf "%10s  %c %s@." "" markers.(k mod Array.length markers) s.label)
    t.series
