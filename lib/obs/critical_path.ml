(* The critical path through a recorded run: the longest dependency chain
   ending at the last-finishing span, walked backwards through two kinds of
   edges — program order within a rank, and message edges between ranks.

   A message edge says "rank dst could not pass time t_recv before rank src
   reached t_send". Edges come either from a simulator message trace
   (exact: send start and delivery time are recorded) or are reconstructed
   from send/recv spans by FIFO matching ({!edges_of_spans}): the k-th
   "send" span from src to dst pairs with the k-th "recv" span on dst from
   src, which is exact for the FIFO channels both our runtimes use.

   The walk: starting from the span with the latest end time, a span was
   critically delayed by the message arriving during it (the latest such
   arrival), else by its rank's preceding span. Each hop moves strictly
   backwards in time, so the walk terminates; on a bounded trace that
   dropped spans it simply ends where the record does. *)

type edge = { src : int; dst : int; t_send : float; t_recv : float }

type step = { span : Span.t; via_message : edge option }
(** [via_message] is the edge that gated the {e next} (later) step. *)

let eps = 1e-9

(* FIFO-match "send" spans (arg "dst") with "recv" spans (arg "src"). *)
let edges_of_spans ?(send = "send") ?(recv = "recv") spans =
  let pending : (int * int, Span.t Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let queue key =
    match Hashtbl.find_opt pending key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add pending key q;
        q
  in
  (* Spans are processed in start order so each per-(src,dst) queue is in
     FIFO send order. *)
  let sorted = List.sort Span.compare_start spans in
  List.iter
    (fun (s : Span.t) ->
      if s.name = send then
        match Span.arg_int s "dst" with
        | Some dst -> Queue.push s (queue (s.rank, dst))
        | None -> ())
    sorted;
  let edges = ref [] in
  List.iter
    (fun (r : Span.t) ->
      if r.name = recv then
        match Span.arg_int r "src" with
        | Some src -> (
            match Hashtbl.find_opt pending (src, r.rank) with
            | Some q when not (Queue.is_empty q) ->
                let s = Queue.pop q in
                edges :=
                  { src; dst = r.rank; t_send = s.t_start;
                    t_recv = Span.end_time r }
                  :: !edges
            | _ -> ())
        | None -> ())
    sorted;
  List.rev !edges

let walk ~spans ~edges =
  match spans with
  | [] -> []
  | _ ->
      (* Per-rank span lists in start order, for predecessor lookups. *)
      let by_rank : (int, Span.t array) Hashtbl.t = Hashtbl.create 16 in
      let grouped : (int, Span.t list ref) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (s : Span.t) ->
          match Hashtbl.find_opt grouped s.rank with
          | Some l -> l := s :: !l
          | None -> Hashtbl.add grouped s.rank (ref [ s ]))
        spans;
      Hashtbl.iter
        (fun rank l ->
          let a = Array.of_list !l in
          Array.sort Span.compare_start a;
          Hashtbl.add by_rank rank a)
        grouped;
      (* Last span on [rank] starting at or before [t] (and, with
         [strictly_before], starting before [t]). *)
      let span_at ?(strictly_before = false) rank t =
        match Hashtbl.find_opt by_rank rank with
        | None -> None
        | Some a ->
            let ok (s : Span.t) =
              if strictly_before then s.t_start < t -. eps
              else s.t_start <= t +. eps
            in
            let best = ref None in
            (* binary search for the last ok index *)
            let lo = ref 0 and hi = ref (Array.length a - 1) in
            while !lo <= !hi do
              let mid = (!lo + !hi) / 2 in
              if ok a.(mid) then begin
                best := Some a.(mid);
                lo := mid + 1
              end
              else hi := mid - 1
            done;
            !best
      in
      let edges = Array.of_list edges in
      let last =
        List.fold_left
          (fun best s ->
            if Span.end_time s > Span.end_time best then s else best)
          (List.hd spans) spans
      in
      (* Timestamps alone do not decrease monotonically along hops (a
         blocked receiver's span starts before the matching send starts),
         so termination comes from never revisiting a span. *)
      let visited : (int * float * string, unit) Hashtbl.t =
        Hashtbl.create 64
      in
      let key (s : Span.t) = (s.rank, s.t_start, s.name) in
      let rec go acc (s : Span.t) =
        (* The latest message arriving into this span: the gating
           dependency if one exists. *)
        let gating = ref None in
        Array.iter
          (fun e ->
            if
              e.dst = s.rank
              && e.t_recv >= s.t_start -. eps
              && e.t_recv <= Span.end_time s +. eps
              && e.t_send < Span.end_time s -. eps
            then
              match !gating with
              | Some g when g.t_recv >= e.t_recv -> ()
              | _ -> gating := Some e)
          edges;
        (* Prefer the message dependency; when its source span was already
           visited (coarse spans covering many messages can gate each other
           mutually), fall back to program order so the walk continues
           instead of ending at the cycle. *)
        let candidates =
          (match !gating with
          | Some e -> (
              match span_at e.src e.t_send with
              | Some up -> [ (up, Some e) ]
              | None -> [])
          | None -> [])
          @
          match span_at ~strictly_before:true s.rank s.t_start with
          | Some prev -> [ (prev, None) ]
          | None -> []
        in
        match
          List.find_opt
            (fun (up, _) -> not (Hashtbl.mem visited (key up)))
            candidates
        with
        | Some (up, via) ->
            Hashtbl.add visited (key up) ();
            go ({ span = up; via_message = via } :: acc) up
        | None -> acc
      in
      Hashtbl.add visited (key last) ();
      go [ { span = last; via_message = None } ] last

(* The walk with its honesty attached: whether the trace it ran on was
   complete. A bounded tracer that dropped spans may have lost the true
   head of the chain, so the path must not be presented as the full story —
   reports render the truncation note, not just the steps. *)
type report = { steps : step list; dropped : int; complete : bool }

let report ?(dropped = 0) ~spans ~edges () =
  { steps = walk ~spans ~edges; dropped; complete = dropped = 0 }

let truncation_note r =
  if r.complete then None
  else
    Some
      (Printf.sprintf
         "TRUNCATED: %d spans were dropped by the bounded tracer; the path \
          ends where the record does and its head may be missing"
         r.dropped)

type segment = { name : string; count : int; total : float }

let summarize steps =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { span; _ } ->
      let c, t =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl span.Span.name)
      in
      Hashtbl.replace tbl span.Span.name (c + 1, t +. span.Span.dur))
    steps;
  Hashtbl.fold (fun name (count, total) acc -> { name; count; total } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Float.compare b.total a.total with
         | 0 -> compare a.name b.name
         | c -> c)
