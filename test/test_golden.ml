(* Golden pin of every System and Engine entry point.

   For a fixed-seed Health and XMark hosting, each entry point is run
   over a fixed query set and everything it reports that is not a
   timing — answers, wire bytes, blocks, retry facts, degradation,
   engine cache outcomes — is printed together with the leakage ledger
   the entry point recorded (the rounds and totals of
   [Obs.Ledger.to_json]).  The text must
   equal golden/system_engine.expected line for line: a refactor of the
   evaluation paths may move time around but not what crosses the wire
   or what the ledger says crossed it.

   On a mismatch the actual text is written to golden_actual.txt beside
   the test executable (under _build), to diff against the pin. *)

module System = Secure.System
module Transport = Secure.Transport
module Session = Secure.Session

(* Beside the test executable, where dune copies the pin. *)
let here = Filename.dirname Sys.executable_name
let expected_file = Filename.concat here "golden/system_engine.expected"
let actual_file = Filename.concat here "golden_actual.txt"

let out = Buffer.create (1 lsl 16)
let line fmt = Printf.ksprintf (fun s -> Buffer.add_string out s; Buffer.add_char out '\n') fmt

let answers_line trees =
  let norm = Helpers.norm_trees trees in
  line "  answers n=%d md5=%s" (List.length norm)
    (Digest.to_hex (Digest.string (String.concat "\n" norm)))

let cost_line (c : System.cost) =
  line
    "  cost bytes=%d blocks=%d answers=%d attempts=%d retransmitted=%d \
     faults=%d replays=%d degraded=%b"
    c.System.transmit_bytes c.System.blocks_returned c.System.answer_count
    c.System.attempts c.System.retransmitted_bytes c.System.faults_absorbed
    c.System.replays c.System.degraded

let report_line (r : Engine.report) =
  line "  plan %s" (Engine.Plan.to_string r.Engine.plan);
  line
    "  report plan=%s result=%s request=%d block_hits=%d block_misses=%d \
     bytes=%d blocks=%d decrypted=%d answers=%d"
    (Engine.outcome_to_string r.Engine.plan_outcome)
    (Engine.outcome_to_string r.Engine.result_outcome)
    r.Engine.request_bytes r.Engine.block_hits r.Engine.block_misses
    r.Engine.transmit_bytes r.Engine.blocks_returned r.Engine.blocks_decrypted
    r.Engine.answer_count;
  List.iter
    (fun (s : Engine.Exec.step_actual) ->
      line "  step %d est=%.6g raw=%d surviving=%d" s.Engine.Exec.index
        s.Engine.Exec.estimated s.Engine.Exec.actual_raw s.Engine.Exec.surviving)
    r.Engine.steps

let error_line e = line "  error %s" (Session.error_to_string e)

(* One section per entry point: a cleared ledger, the body, then the
   rounds the body recorded. *)
let section sys name body =
  let ledger = System.ledger sys in
  Obs.Ledger.clear ledger;
  Obs.Ledger.set_enabled ledger true;
  line "== %s" name;
  body ();
  (* [Obs.Ledger.to_json], one round per line so a diff names the round. *)
  List.iter
    (fun r -> line "  round %s" (Obs.Json.to_string (Obs.Ledger.round_to_json r)))
    (Obs.Ledger.rounds ledger);
  line "  totals %s" (Obs.Json.to_string (Obs.Ledger.round_to_json (Obs.Ledger.totals ledger)));
  Obs.Ledger.set_enabled ledger false

let queries_of doc =
  List.concat_map
    (fun family -> Workload.Querygen.generate ~seed:2024L doc family ~count:2)
    Workload.Querygen.all_families

let dead_session = { Session.default_config with Session.max_attempts = 2 }
let dead_profile = Transport.chaos ~drop:1.0 ()
let flaky_profile = Transport.chaos ~drop:0.25 ~flip:0.1 ~duplicate:0.3 ()

let pin_family ~name ~pool doc scs =
  let sys, _ = System.setup ~master:("golden-" ^ name) doc scs Secure.Scheme.Opt in
  let pooled, _ =
    System.setup ~master:("golden-" ^ name) ~pool doc scs Secure.Scheme.Opt
  in
  let queries = queries_of (System.doc sys) in
  let ids = Secure.Server.block_ids (System.server sys) in
  let some_ids k = List.filteri (fun i _ -> i mod k = 0) ids in
  line "### %s: %d blocks, %d queries" name (List.length ids) (List.length queries);
  List.iteri (fun i q -> line "query %d %s" i (Xpath.Ast.to_string q)) queries;
  let each f = List.iter f queries in
  let pair (answers, cost) = answers_line answers; cost_line cost in
  let strict = function Ok r -> pair r | Error e -> error_line e in
  section sys "evaluate" (fun () -> each (fun q -> pair (System.evaluate sys q)));
  section sys "try_evaluate" (fun () ->
      each (fun q -> strict (System.try_evaluate sys q)));
  section sys "try_evaluate_padded" (fun () ->
      each (fun q -> strict (System.try_evaluate_padded sys ~extra:(some_ids 3) q)));
  section sys "fetch_blocks" (fun () ->
      List.iter
        (fun k ->
          match System.fetch_blocks sys (some_ids k) with
          | Ok c -> cost_line c
          | Error e -> error_line e)
        [ 1; 2; 5 ]);
  let unions =
    [ List.filteri (fun i _ -> i < 2) queries;
      List.filteri (fun i _ -> i >= 4 && i < 7) queries ]
  in
  section sys "evaluate_union" (fun () ->
      List.iter (fun u -> pair (System.evaluate_union sys u)) unions);
  section sys "try_evaluate_union" (fun () ->
      List.iter (fun u -> strict (System.try_evaluate_union sys u)) unions);
  section sys "naive_evaluate" (fun () ->
      each (fun q -> pair (System.naive_evaluate sys q)));
  let dead = System.with_faults ~session:dead_session ~profile:dead_profile ~seed:5L sys in
  section dead "evaluate dead link" (fun () ->
      each (fun q -> pair (System.evaluate dead q)));
  section dead "evaluate_union dead link" (fun () ->
      List.iter (fun u -> pair (System.evaluate_union dead u)) unions);
  let flaky = System.with_faults ~profile:flaky_profile ~seed:11L sys in
  section flaky "evaluate flaky link" (fun () ->
      each (fun q -> pair (System.evaluate flaky q)));
  section flaky "try_evaluate_padded flaky link" (fun () ->
      each (fun q ->
          strict (System.try_evaluate_padded flaky ~extra:(some_ids 4) q)));
  section flaky "fetch_blocks flaky link" (fun () ->
      List.iter
        (fun k ->
          match System.fetch_blocks flaky (some_ids k) with
          | Ok c -> cost_line c
          | Error e -> error_line e)
        [ 1; 2; 3; 5; 7 ]);
  let batch = Array.of_list queries in
  section sys "evaluate_batch no pool" (fun () ->
      Array.iter pair (System.evaluate_batch sys batch));
  section pooled "evaluate_batch pool 2" (fun () ->
      Array.iter pair (System.evaluate_batch pooled batch));
  let eng = Engine.create sys in
  let report (answers, r) = answers_line answers; report_line r in
  section sys "engine evaluate_report cold" (fun () ->
      each (fun q -> report (Engine.evaluate_report eng q)));
  section sys "engine evaluate_report warm" (fun () ->
      each (fun q -> report (Engine.evaluate_report eng q)));
  let eng = Engine.create sys in
  section sys "engine evaluate_batch no pool cold" (fun () ->
      Array.iter report (Engine.evaluate_batch eng batch));
  section sys "engine evaluate_batch no pool warm" (fun () ->
      Array.iter report (Engine.evaluate_batch eng batch));
  (* Cold pooled lanes may race on shared block-cache keys, so only a
     warm pooled batch (every lookup a hit) has one right answer. *)
  let eng = Engine.create pooled in
  Array.iter (fun q -> ignore (Engine.evaluate_report eng q)) batch;
  section pooled "engine evaluate_batch pool 2 warm" (fun () ->
      Array.iter report (Engine.evaluate_batch eng batch))

let first_difference expected actual =
  let e = String.split_on_char '\n' expected in
  let a = String.split_on_char '\n' actual in
  let rec go n = function
    | x :: xs, y :: ys -> if x = y then go (n + 1) (xs, ys) else Some (n, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (n, x, "<end of output>")
    | [], y :: _ -> Some (n, "<end of pin>", y)
  in
  go 1 (e, a)

let golden () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () ->
      pin_family ~name:"health" ~pool
        (Workload.Health.generate ~seed:17L ~patients:12 ())
        (Workload.Health.constraints ());
      pin_family ~name:"xmark" ~pool
        (Workload.Xmark.generate ~seed:17L ~persons:8 ())
        (Workload.Xmark.constraints ()));
  let actual = Buffer.contents out in
  let expected = In_channel.with_open_bin expected_file In_channel.input_all in
  match first_difference expected actual with
  | None -> ()
  | Some (n, e, a) ->
    Out_channel.with_open_bin actual_file (fun oc -> output_string oc actual);
    Alcotest.failf "golden pin differs at line %d (actual output in %s):\n  pin:    %s\n  actual: %s"
      n actual_file e a

let () =
  Alcotest.run "golden"
    [ "golden", [ Alcotest.test_case "system and engine entry points" `Quick golden ] ]
