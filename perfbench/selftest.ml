(* Negative controls for the oracle: the daemon's real replies pass, and
   every doctored reply is rejected and counted as a failure, never as a
   fast answer. Exit 0 when every check holds. *)

(* [body] with the second digit of the number after the last [key]
   changed: a different double, unlike a change in the 17th digit. *)
let doctor_number ~key body =
  let rec last_from i acc =
    match Daemon.find ~from:i body key with
    | Some j -> last_from (j + 1) (Some j)
    | None -> acc
  in
  match last_from 0 None with
  | None -> body
  | Some k ->
      let rec nth_digit i n =
        match body.[i] with
        | '0' .. '9' when n = 0 -> i
        | '0' .. '9' -> nth_digit (i + 1) (n - 1)
        | _ -> nth_digit (i + 1) n
      in
      let i = nth_digit (k + String.length key) 1 in
      let b = Bytes.of_string body in
      Bytes.set b i (if body.[i] = '9' then '0' else Char.chr (Char.code body.[i] + 1));
      Bytes.to_string b

let replace ~sub ~by body =
  match Daemon.find body sub with
  | None -> body
  | Some i ->
      String.sub body 0 i ^ by
      ^ String.sub body (i + String.length sub) (String.length body - i - String.length sub)

let run ~exe =
  let pools = Gen.pools ~seed:1 in
  let oracle = Oracle.create pools in
  match Daemon.spawn ~exe ~workers:2 with
  | Error e ->
      prerr_endline e;
      1
  | Ok d ->
      let ops = [ Gen.Predict 0; Gen.Validate 0; Gen.Sweep 0 ] in
      let replies =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            List.map
              (fun op ->
                let path, body = Gen.body pools op in
                (op, Daemon.request ~body ~port:d.Daemon.port "POST" path))
              ops)
      in
      let failures = ref 0 in
      let check name ok =
        Printf.printf "%-4s %s\n" (if ok then "ok" else "FAIL") name;
        if not ok then incr failures
      in
      let verdict op r = Oracle.correct oracle op r in
      List.iter
        (fun (op, (r : Daemon.reply)) ->
          let name = Serve_load.op_name op in
          let rejects what body' = check (name ^ ": " ^ what ^ " is rejected")
              (not (verdict op { r with body = body' }))
          in
          check (name ^ ": the daemon's reply passes") (verdict op r);
          check (name ^ ": status 500 is rejected") (not (verdict op { r with status = 500 }));
          check (name ^ ": no response is rejected") (not (verdict op Daemon.no_response));
          rejects "a truncated body" (String.sub r.body 0 (String.length r.body / 2));
          match op with
          | Gen.Predict _ | Gen.Validate _ ->
              rejects "a changed t_iteration" (doctor_number ~key:{|"t_iteration":|} r.body);
              if op = Gen.Validate 0 then
                rejects "a missing validation"
                  (replace ~sub:{|"validation":{|} ~by:{|"validation":null,"was":{|} r.body)
          | Gen.Sweep _ ->
              rejects "a changed point count" (doctor_number ~key:{|"points":|} r.body);
              rejects "a changed frontier total" (doctor_number ~key:{|"total":|} r.body))
        replies;
      (* A doctored fast reply beside a correct slow one: one failure,
         and the latency figures come from the correct reply alone. *)
      let op, r = List.hd replies in
      let doctored = { r with Daemon.body = doctor_number ~key:{|"t_iteration":|} r.body } in
      let s =
        Serve_load.summarize oracle ~seconds:1.0
          ( 0.0,
            [ { Serve_load.op; t0 = 0.0; t1 = 1000.0; reply = r };
              { op; t0 = 0.0; t1 = 1.0; reply = doctored } ] )
      in
      check "accounting: the doctored reply is one failure of two"
        (s.failed = 1 && s.attempted = 2);
      check "accounting: latency excludes the doctored reply"
        (Serve_load.latencies_ms Serve_load.is_predict s = [| 1.0 |]);
      Printf.printf "selftest: %d failure(s)\n" !failures;
      if !failures = 0 then 0 else 1
