(* perfbench: one closed-loop, single-threaded client per workload,
   driving the program's public entry points with their defaults (no
   domain pool), checking every output against plaintext evaluation and
   printing calibrated end-to-end metrics (or, with --trace 1, per-layer
   metrics from spans).  See perfbench/README.md. *)

module S = Secure.System
module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

let timed f =
  let t0 = Calib.now_ns () in
  let v = f () in
  v, Calib.ms_since t0

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

type run = {
  w : Work.workload;
  tr : Spans.t option;
  meter : Calib.meter;  (* the query loop and the edits, in run order *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  mutable query_ms : (float * int) list;  (* raw ms, calibration window *)
  mutable edit_ms : (float * int) list;
  mutable loop_ms : (float * int) list;   (* operations of the measured loop *)
  mutable queries : int;
  mutable query_bytes : int;
  (* traced run only *)
  mutable system_ms : float list;      (* System.evaluate beside the composition *)
  mutable composed_ms : float list;    (* the composed path, same queries *)
  mutable composed : int;
  mutable candidate_intervals : int;
  mutable btree_hits : int;
  mutable shipped : int;
  mutable useful : int;
  mutable hit_ms : (float * int) list;
  mutable miss_ms : (float * int) list;
  mutable engine : Engine.Stats.t;     (* summed per-evaluation deltas *)
  mutable edits_done : int;
  mutable incremental : int;
  mutable fallbacks : int;
  mutable patch_ms : float;
  mutable unaccounted_ms : float;
  mutable index_entries : int;
  mutable rows_patched : int;
  mutable catalogs_patched : int;
  mutable reencrypted_bytes : int;
  mutable blocks_touched : int;
}

let create w tr =
  { w; tr; meter = Calib.meter ();
    attempted = 0; failed = 0; first_error = None;
    query_ms = []; edit_ms = []; loop_ms = []; queries = 0; query_bytes = 0;
    system_ms = []; composed_ms = []; composed = 0; candidate_intervals = 0;
    btree_hits = 0; shipped = 0; useful = 0; hit_ms = []; miss_ms = [];
    engine = Engine.Stats.zero; edits_done = 0; incremental = 0; fallbacks = 0;
    patch_ms = 0.0; unaccounted_ms = 0.0; index_entries = 0; rows_patched = 0;
    catalogs_patched = 0; reencrypted_bytes = 0; blocks_touched = 0 }

let within r name f = match r.tr with None -> f () | Some t -> Spans.span t name f
let next_op r = Option.iter Spans.next_op r.tr

(* One attempted operation: any failed check or exception fails it. *)
let verdict r f =
  r.attempted <- r.attempted + 1;
  let outcome = try Check.all (f ()) with e -> Error (Printexc.to_string e) in
  match outcome with
  | Ok () -> ()
  | Error msg ->
    r.failed <- r.failed + 1;
    if r.first_error = None then r.first_error <- Some msg

let measured_query r ms bytes =
  let sample = ms, Calib.account r.meter ms in
  r.query_ms <- sample :: r.query_ms;
  r.loop_ms <- sample :: r.loop_ms;
  r.queries <- r.queries + 1;
  r.query_bytes <- r.query_bytes + bytes

(* ------------------------------------------------------------------ *)
(* Traced extras                                                       *)

(* The composed layer path beside [System.evaluate] on the same query:
   answers and wire bytes must match exactly. *)
let compose r sys q ~needed =
  match r.tr with
  | None -> []
  | Some t ->
    let evaluate () = timed (fun () -> Spans.span t "system.evaluate" (fun () -> S.evaluate sys q)) in
    let compose () = timed (fun () -> Layers.query t sys q) in
    (* Alternate which runs first, so neither always meets cold caches. *)
    let ((got, cost), sys_ms), (c, c_ms) =
      if r.composed mod 2 = 0 then
        let e = evaluate () in
        e, compose ()
      else
        let c = compose () in
        evaluate (), c
    in
    r.system_ms <- sys_ms :: r.system_ms;
    r.composed_ms <- c_ms :: r.composed_ms;
    r.composed <- r.composed + 1;
    let response = c.Layers.response in
    let shipped = List.map (fun b -> b.Secure.Encrypt.id) response.Secure.Server.blocks in
    r.candidate_intervals <- r.candidate_intervals + response.Secure.Server.candidate_intervals;
    r.btree_hits <- r.btree_hits + response.Secure.Server.btree_hits;
    r.shipped <- r.shipped + List.length shipped;
    r.useful <- r.useful + List.length (List.filter (fun id -> List.mem id shipped) needed);
    [ (match Check.answers ~expected:(Check.digests got) ~got:c.Layers.answers with
       | Ok () -> Ok ()
       | Error e -> Error ("composed layer path against System.evaluate: " ^ e));
      (if c.Layers.wire_bytes = cost.S.transmit_bytes then Ok ()
       else
         Error
           (Printf.sprintf "composed layer path moved %d wire bytes, System.evaluate %d"
              c.Layers.wire_bytes cost.S.transmit_bytes)) ]

let add_stats (a : Engine.Stats.t) (b : Engine.Stats.t) (c : Engine.Stats.t) =
  (* a + (c - b) *)
  let d f = f a + f c - f b in
  { Engine.Stats.queries = d (fun s -> s.Engine.Stats.queries);
    plans_compiled = d (fun s -> s.Engine.Stats.plans_compiled);
    steps_reordered = d (fun s -> s.Engine.Stats.steps_reordered);
    invalidations = d (fun s -> s.Engine.Stats.invalidations);
    plan_hits = d (fun s -> s.Engine.Stats.plan_hits);
    plan_misses = d (fun s -> s.Engine.Stats.plan_misses);
    plan_evictions = d (fun s -> s.Engine.Stats.plan_evictions);
    result_hits = d (fun s -> s.Engine.Stats.result_hits);
    result_misses = d (fun s -> s.Engine.Stats.result_misses);
    result_evictions = d (fun s -> s.Engine.Stats.result_evictions);
    block_hits = d (fun s -> s.Engine.Stats.block_hits);
    block_misses = d (fun s -> s.Engine.Stats.block_misses);
    block_evictions = d (fun s -> s.Engine.Stats.block_evictions) }

(* ------------------------------------------------------------------ *)
(* Query operations                                                    *)

type expected = {
  answers : Digest.t list;  (* digests, so the table keeps no answer alive *)
  needed : int list;  (* blocks holding part of an answer *)
  blocks : int;       (* blocks the server ships *)
  bytes : int;        (* request + response bytes *)
}

(* Plaintext answers, answer blocks, and what the server ships for the
   query, computed once per distinct query; the generated query must be
   non-empty and its shipment must cover its answer blocks. *)
let expectation sys doc q =
  let answers = Check.reference doc q in
  let squery = Secure.Client.translate (S.client sys) q in
  let response = Secure.Server.answer (S.server sys) squery in
  let shipped = List.map (fun b -> b.Secure.Encrypt.id) response.Secure.Server.blocks in
  let needed = Check.answer_blocks (S.db sys) doc q in
  ( { answers = Check.digests answers;
      needed;
      blocks = List.length shipped;
      bytes = String.length (Secure.Protocol.encode_request squery) + response.Secure.Server.bytes },
    [ Check.nonempty q answers; Check.superset ~shipped ~needed ] )

let expectations sys doc queries =
  let table = Hashtbl.create 128 in
  Array.iter
    (fun q ->
      let key = Xpath.Ast.to_string q in
      if not (Hashtbl.mem table key) then Hashtbl.add table key (expectation sys doc q))
    queries;
  fun q -> Hashtbl.find table (Xpath.Ast.to_string q)

(* xmark-scan: the paper's protocol through System.evaluate. *)
let scan_query r sys expect q ~measure ~first =
  next_op r;
  verdict r (fun () ->
      let e, generated = expect q in
      let (got, cost), ms = timed (fun () -> within r "system.evaluate" (fun () -> S.evaluate sys q)) in
      if measure then measured_query r ms cost.S.transmit_bytes;
      let traced = if measure then compose r sys q ~needed:e.needed else [] in
      (if first then generated else [])
      @ [ Check.answers ~expected:e.answers ~got;
          Check.clean_round cost;
          (if cost.S.blocks_returned = e.blocks then Ok ()
           else Error "System.evaluate shipped another block count than Server.answer");
          (if cost.S.transmit_bytes = e.bytes then Ok ()
           else Error "System.evaluate moved other wire bytes than the request and response") ]
      @ traced)

(* An engine query; returns the answers for the caller's checks. *)
let engine_query r eng q ~measure =
  let before = Engine.stats eng in
  let (got, report), ms =
    timed (fun () -> within r "engine.evaluate" (fun () -> Engine.evaluate_report eng q))
  in
  let after = Engine.stats eng in
  if measure then begin
    measured_query r ms report.Engine.transmit_bytes;
    r.engine <- add_stats r.engine before after;
    let sample = ms, snd (List.hd r.query_ms) in
    match report.Engine.result_outcome with
    | Engine.Hit -> r.hit_ms <- sample :: r.hit_ms
    | Engine.Miss | Engine.Bypass -> r.miss_ms <- sample :: r.miss_ms
  end;
  got

(* xmark-hot: the engine's caches in front of the same hosting. *)
let hot_query r eng expect q ~measure =
  next_op r;
  verdict r (fun () ->
      let e, _ = expect q in
      let got = engine_query r eng q ~measure in
      let traced = if measure then compose r (Engine.system eng) q ~needed:e.needed else [] in
      Check.answers ~expected:e.answers ~got :: traced)

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

let edit_path = function
  | Secure.Update.Set_value (p, _) | Secure.Update.Delete_nodes p -> p
  | Secure.Update.Insert_child { parent; _ } -> parent

(* One edit through the engine, timed from outside the call, then its
   read-back query.  [measure] records the edit's sample and costs;
   [in_loop] also makes edit and read-back operations of the measured
   loop, the read-back going through the engine (otherwise through
   [System.evaluate], checked for a clean round).  [doc] is the
   benchmark's own plaintext copy, edited beside the hosting. *)
let edit_op r eng doc (e : Work.edit) ~measure ~in_loop =
  next_op r;
  verdict r (fun () ->
      let before = !doc in
      let sys = Engine.system eng in
      let past_enforcement =
        match r.tr with
        | Some t when measure -> Some (Layers.update_beside t sys e.Work.edit)
        | Some _ | None -> None
      in
      let cost, ms =
        timed (fun () ->
            within r "system.apply_delta" (fun () -> Engine.apply_delta eng e.Work.edit))
      in
      if measure then begin
        let sample = ms, Calib.account r.meter ms in
        r.edit_ms <- sample :: r.edit_ms;
        if in_loop then r.loop_ms <- sample :: r.loop_ms;
        r.edits_done <- r.edits_done + 1
      end;
      if not measure then ()
      else if cost.S.fell_back then r.fallbacks <- r.fallbacks + 1
      else begin
        r.incremental <- r.incremental + 1;
        r.patch_ms <- r.patch_ms +. cost.S.patch_ms;
        r.unaccounted_ms <-
          r.unaccounted_ms +. (ms -. cost.S.plan_ms -. cost.S.reencrypt_ms -. cost.S.patch_ms);
        r.index_entries <- r.index_entries + cost.S.index_entries_touched;
        r.rows_patched <- r.rows_patched + cost.S.rows_removed + cost.S.rows_added;
        r.catalogs_patched <- r.catalogs_patched + cost.S.catalogs_patched;
        r.reencrypted_bytes <- r.reencrypted_bytes + cost.S.reencrypted_bytes;
        r.blocks_touched <- r.blocks_touched + cost.S.blocks_touched
      end;
      let after = Doc.of_tree (Secure.Update.apply before e.Work.edit) in
      doc := after;
      let q = e.Work.readback in
      let got, round =
        let sys = Engine.system eng in
        if in_loop then
          let got = engine_query r eng q ~measure:true in
          got, compose r sys q ~needed:(Check.answer_blocks (S.db sys) (S.doc sys) q)
        else
          let got, cost = S.evaluate sys q in
          got, [ Check.clean_round cost ]
      in
      let bound = Xpath.Eval.eval before (edit_path e.Work.edit) in
      let before_answers = Check.reference before q in
      let property =
        match e.Work.expect with
        | Work.Reads_back (tag, value) ->
          Check.reads_back ~tag ~value ~before:before_answers
            ~bound:(List.filter_map (Doc.value before) bound) got
        | Work.Inserted _ | Work.Deleted _ ->
          let delta =
            match e.Work.expect with Work.Inserted _ -> List.length bound | _ -> - List.length bound
          in
          Check.count_changed ~before:(List.length before_answers) ~delta ~got
      in
      let enforcement =
        match past_enforcement with
        | Some false when not cost.S.fell_back ->
          [ Error "edit passed incrementally although the enforcement re-check failed" ]
        | _ -> []
      in
      (Check.answers ~expected:(Check.digests (Check.reference after q)) ~got :: property :: round)
      @ enforcement)

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)

let host w doc = fst (S.setup ~master:Work.master doc (Work.constraints w) Secure.Scheme.Opt)

let slice_ms = 150.0

(* Untraced: several hostings, each with calibration slices on both
   sides; returns the last hosting and every calibrated time (s).  Only
   one hosting is alive at a time. *)
let timed_hostings w doc =
  let rec go k acc =
    Gc.compact ();
    let m = Calib.meter () in
    Calib.run_for m slice_ms;
    let sys, ms = timed (fun () -> host w doc) in
    Calib.run_for m slice_ms;
    let acc = (ms *. Calib.factor m /. 1000.0, ms /. 1000.0, Calib.units_per_ms m) :: acc in
    if k = 1 then sys, List.rev acc else go (k - 1) acc
  in
  go (Work.hostings w) []

(* ------------------------------------------------------------------ *)
(* Workload loops                                                      *)

let min_rounds = function Work.Xmark_scan | Work.Xmark_hot -> 1 | Work.Health_churn -> 5

let measured_loop r ~seconds round =
  let start = Calib.now_ns () in
  let rounds = ref 0 in
  while !rounds < min_rounds r.w || Calib.ms_since start < seconds *. 1000.0 do
    round ();
    incr rounds
  done;
  !rounds

(* The XMark workloads' edit phase, after their query loop: a fixed 20
   edits through an engine over the hosting, outside the measured loop,
   so that every workload reports the update metrics. *)
let edit_phase r eng doc edits =
  List.iter (fun e -> edit_op r eng doc e ~measure:true ~in_loop:false) edits

let stored_bytes_per_byte sys =
  float (Secure.Encrypt.server_bytes (S.db sys) + Secure.Metadata.metadata_bytes (S.metadata sys))
  /. float (String.length (Xmlcore.Printer.doc_to_string (S.doc sys)))

type outcome = {
  final : S.t;
  rounds : int;
}

let run_workload r ~seed ~seconds sys0 doc0 =
  let doc = ref doc0 in
  match r.w with
  | Work.Xmark_scan ->
    let round = Work.scan_round doc0 seed in
    let expect = expectations sys0 doc0 round in
    Array.iter (fun q -> scan_query r sys0 expect q ~measure:false ~first:true) round;
    let rounds =
      measured_loop r ~seconds (fun () ->
          Array.iter (fun q -> scan_query r sys0 expect q ~measure:true ~first:false) round)
    in
    let eng = Engine.create sys0 in
    edit_phase r eng doc (Work.xmark_edits doc0 seed);
    { final = Engine.system eng; rounds }
  | Work.Xmark_hot ->
    let pool = Work.hot_pool doc0 seed in
    let round = Work.hot_round pool seed in
    let expect = expectations sys0 doc0 pool in
    let eng = Engine.create sys0 in
    (* One operation checks every pool query's generated properties. *)
    verdict r (fun () -> List.concat_map (fun q -> snd (expect q)) (Array.to_list pool));
    Array.iter (fun q -> hot_query r eng expect q ~measure:false) round;
    let rounds =
      measured_loop r ~seconds (fun () ->
          Array.iter (fun q -> hot_query r eng expect q ~measure:true) round)
    in
    edit_phase r eng doc (Work.xmark_edits doc0 seed);
    { final = Engine.system eng; rounds }
  | Work.Health_churn ->
    let edits = Work.churn_round doc0 seed in
    let eng = Engine.create sys0 in
    let round ~measure () =
      List.iter (fun e -> edit_op r eng doc e ~measure ~in_loop:measure) edits
    in
    round ~measure:false ();
    let rounds = measured_loop r ~seconds (round ~measure:true) in
    { final = Engine.system eng; rounds }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { name : string; unit : string; value : float; raw : float option }

(* The highest of p90, p75 and p50 that leaves at least ten samples
   beyond it.  Every run holds at least 100 queries, and health-churn at
   least 100 edits, so theirs is p90; the XMark edit phase is a fixed 20
   edits of one kind, so its "tail" is their median. *)
let tail_percentile what samples =
  let n = List.length samples in
  match List.find_opt (fun p -> Stat.beyond p n >= 10) [ 0.90; 0.75; 0.50 ] with
  | Some p -> p
  | None -> failwith (Printf.sprintf "%s: %d samples leave fewer than 10 beyond p50" what n)

(* Each sample at the reference speed, by its own window's factor. *)
let calibrated meter samples =
  let factors = Calib.factors meter in
  List.map (fun (ms, w) -> ms *. factors.(w)) samples

let end_to_end r ~setup ~final =
  let pq = tail_percentile "queries" r.query_ms and pu = tail_percentile "edits" r.edit_ms in
  let queries = calibrated r.meter r.query_ms and edits = calibrated r.meter r.edit_ms in
  let raw = List.map fst in
  let timing name unit stat samples raw_samples =
    { name; unit; value = stat samples; raw = Some (stat raw_samples) }
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let per_s ms = float (List.length r.loop_ms) /. (sum ms /. 1000.0) in
  [ { name = "setup_s"; unit = "s";
      value = Stat.median (List.map (fun (c, _, _) -> c) setup);
      raw = Some (Stat.median (List.map (fun (_, raw, _) -> raw) setup)) };
    timing "query_p50_ms" "ms" Stat.median queries (raw r.query_ms);
    timing "query_tail_ms" "ms" (Stat.percentile pq) queries (raw r.query_ms);
    { name = "ops_per_s"; unit = "1/s";
      value = per_s (calibrated r.meter r.loop_ms); raw = Some (per_s (raw r.loop_ms)) };
    timing "update_p50_ms" "ms" Stat.median edits (raw r.edit_ms);
    timing "update_tail_ms" "ms" (Stat.percentile pu) edits (raw r.edit_ms);
    { name = "bytes_per_query"; unit = "bytes";
      value = float r.query_bytes /. float r.queries; raw = None };
    { name = "stored_bytes_per_byte"; unit = "ratio"; value = stored_bytes_per_byte final; raw = None };
    { name = "heap_peak_mb"; unit = "MB";
      value = float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      raw = None } ]

(* [x] spread over [n] calls, times the calibration factor [f]. *)
let per n f x = if n = 0 then 0.0 else x /. float n *. f

(* Per-layer metrics from the spans of a traced run.  Times are
   calibrated like the end-to-end ones; layer times are per query
   (per setup, per edit) and include every call the layer made. *)
let per_layer r t ~setup_factor ~btree_entries =
  let f = Calib.factor r.meter in
  let layers = Spans.layers t in
  let get name = Hashtbl.find_opt layers name in
  let self name = match get name with Some l -> l.Spans.self_ms | None -> 0.0 in
  let words name = match get name with Some l -> l.Spans.words | None -> 0.0 in
  let calls name = match get name with Some l -> l.Spans.calls | None -> 0 in
  let per_query name = per r.composed f (self name) in
  let alloc_kw name = per (calls name) 1.0 (words name) /. 1000.0 in
  let ms name unit value = { name; unit; value; raw = None } in
  let count name unit value = { name; unit; value; raw = None } in
  let layered = [ "client.translate"; "protocol.codec"; "session.frame"; "server.answer";
                  "client.decrypt"; "client.postprocess" ] in
  let layer_sum = List.fold_left (fun acc n -> acc +. self n) 0.0 layered in
  let e = r.engine in
  let ratio h m = if h + m = 0 then 0.0 else float h /. float (h + m) in
  let per_edit x = if r.incremental = 0 then 0.0 else float x /. float r.incremental in
  [ ms "scheme.build_ms" "ms" (self "scheme.build" *. setup_factor);
    ms "encrypt.encrypt_ms" "ms" (self "encrypt.encrypt" *. setup_factor);
    ms "dsi.assign_ms" "ms" (self "dsi.assign" *. setup_factor);
    ms "opess.build_ms" "ms" (self "opess.build" *. setup_factor);
    ms "ope.encrypt_us" "us" (per (calls "ope.encrypt") setup_factor (self "ope.encrypt") *. 1000.0);
    ms "metadata.build_ms" "ms" (self "metadata.build" *. setup_factor);
    count "metadata.build_alloc_mw" "Mwords" (words "metadata.build" /. 1e6);
    count "metadata.btree_entries" "count" (float btree_entries);
    ms "server.create_ms" "ms" (self "server.create" *. setup_factor);
    ms "client.create_ms" "ms" (self "client.create" *. setup_factor);
    ms "client.translate_ms" "ms" (per_query "client.translate");
    ms "protocol.codec_ms" "ms" (per_query "protocol.codec");
    ms "session.frame_ms" "ms" (per_query "session.frame");
    ms "server.prune_ms" "ms" (per_query "server.prune");
    ms "server.answer_ms" "ms" (per_query "server.answer");
    ms "server.select_ms" "ms" (per_query "server.answer" -. per_query "server.prune");
    ms "server.btree_ms" "ms" (per_query "server.btree");
    ms "client.decrypt_ms" "ms" (per_query "client.decrypt");
    ms "client.postprocess_ms" "ms" (per_query "client.postprocess");
    ms "system.wire_overhead_ms" "ms"
      (per r.composed f (List.fold_left ( +. ) 0.0 r.system_ms -. layer_sum));
    count "server.candidate_intervals" "count/query" (per r.composed 1.0 (float r.candidate_intervals));
    count "server.btree_hits" "count/query" (per r.composed 1.0 (float r.btree_hits));
    count "server.blocks_shipped" "count/query" (per r.composed 1.0 (float r.shipped));
    count "client.useful_block_ratio" "ratio"
      (if r.shipped = 0 then 0.0 else float r.useful /. float r.shipped);
    count "client.translate_alloc_kw" "kwords" (alloc_kw "client.translate");
    count "server.answer_alloc_kw" "kwords" (alloc_kw "server.answer");
    count "client.decrypt_alloc_kw" "kwords" (alloc_kw "client.decrypt");
    count "client.postprocess_alloc_kw" "kwords" (alloc_kw "client.postprocess");
    count "engine.plan_hit_ratio" "ratio" (ratio e.Engine.Stats.plan_hits e.Engine.Stats.plan_misses);
    count "engine.result_hit_ratio" "ratio"
      (ratio e.Engine.Stats.result_hits e.Engine.Stats.result_misses);
    count "engine.block_hit_ratio" "ratio" (ratio e.Engine.Stats.block_hits e.Engine.Stats.block_misses);
    count "engine.evictions" "count/query"
      (per e.Engine.Stats.queries 1.0
         (float (e.Engine.Stats.plan_evictions + e.Engine.Stats.result_evictions
                 + e.Engine.Stats.block_evictions)));
    ms "engine.hit_ms" "ms" (if r.hit_ms = [] then 0.0 else Stat.mean (calibrated r.meter r.hit_ms));
    ms "engine.miss_ms" "ms"
      (if r.miss_ms = [] then 0.0 else Stat.mean (calibrated r.meter r.miss_ms));
    ms "update.delta_ms" "ms" (per r.edits_done f (self "update.delta"));
    ms "scheme.enforces_ms" "ms" (per r.edits_done f (self "scheme.enforces"));
    ms "encrypt.reencrypt_ms" "ms" (per r.incremental f (self "encrypt.reencrypt"));
    ms "encrypt.reassemble_ms" "ms" (per r.incremental f (self "encrypt.reassemble"));
    ms "metadata.patch_ms" "ms" (per r.incremental f r.patch_ms);
    ms "system.delta_unaccounted_ms" "ms" (per r.incremental f r.unaccounted_ms);
    count "metadata.index_entries_per_edit" "count/edit" (per_edit r.index_entries);
    count "metadata.rows_patched_per_edit" "count/edit" (per_edit r.rows_patched);
    count "metadata.catalogs_patched_per_edit" "count/edit" (per_edit r.catalogs_patched);
    count "encrypt.reencrypted_bytes_per_edit" "bytes/edit" (per_edit r.reencrypted_bytes);
    count "update.blocks_touched_per_edit" "count/edit" (per_edit r.blocks_touched);
    count "update.fallbacks" "count/edit" (per r.edits_done 1.0 (float r.fallbacks)) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.6f" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string m.name)
              (json_number m.value) (Spans.json_string m.unit))
          metrics))

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      match m.raw with
      | Some raw -> Printf.printf "  %-36s %14.4f %-12s (raw %.4f)\n" m.name m.value m.unit raw
      | None -> Printf.printf "  %-36s %14.4f %s\n" m.name m.value m.unit)
    metrics

let spans_dir = ".perfbench"

let run ~workload ~seed ~seconds ~trace =
  let w = workload in
  let tr = if trace then Some (Spans.create ()) else None in
  let r = create w tr in
  (match Check.self_test () with
   | Ok () -> ()
   | Error msg -> failwith ("checker self-test: " ^ msg));
  let doc = Work.document w seed in
  Printf.printf "perfbench %s seed %d: %d nodes, %d plaintext bytes, trace %b\n%!" (Work.name w) seed
    (Doc.node_count doc)
    (String.length (Xmlcore.Printer.doc_to_string doc))
    trace;
  let sys, setup, setup_factor, btree_entries =
    match tr with
    | None ->
      let sys, hostings = timed_hostings w doc in
      sys, hostings, nan, 0
    | Some t ->
      let m = Calib.meter () in
      Calib.run_for m slice_ms;
      let entries = Layers.setup t doc (Work.constraints w) in
      Calib.run_for m slice_ms;
      host w doc, [], Calib.factor m, entries
  in
  let outcome = run_workload r ~seed ~seconds sys doc in
  Printf.printf "%d blocks; %d measured rounds; %d queries, %d edits (%d fell back)\n"
    (List.length (S.db sys).Secure.Encrypt.blocks) outcome.rounds r.queries (List.length r.edit_ms) r.fallbacks;
  List.iter
    (fun (c, raw, speed) ->
      Printf.printf "hosting: %.4f s calibrated, %.4f s raw, kernel %.3f units/ms\n" c raw speed)
    setup;
  Printf.printf "calibration: reference %.3f units/ms; run kernel %.3f units/ms over %.0f ms\n"
    Calib.reference_units_per_ms (Calib.units_per_ms r.meter) (Calib.kernel_ms r.meter);
  let metrics =
    match tr with
    | None ->
      let m = end_to_end r ~setup ~final:outcome.final in
      print_table "end-to-end (calibrated to the reference speed):" m;
      m
    | Some t ->
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" (Work.name w) seed) in
      let n = Spans.write t path in
      Printf.printf "wrote %d spans to %s\n" n path;
      let sum = List.fold_left ( +. ) 0.0 in
      if r.system_ms <> [] then
        Printf.printf
          "tracing overhead: composed traced path %.2f ms/query vs System.evaluate %.2f ms/query \
           (%+.1f%%) over %d queries\n"
          (sum r.composed_ms /. float r.composed)
          (sum r.system_ms /. float r.composed)
          (100.0 *. ((sum r.composed_ms /. sum r.system_ms) -. 1.0))
          r.composed;
      let m = per_layer r t ~setup_factor ~btree_entries in
      print_table "per-layer (calibrated to the reference speed):" m;
      m
  in
  (* The kernel must not feed the major heap, or heap_peak_mb would
     measure it: a unit's allocation dies inside the minor heap. *)
  let units = Calib.units_per_ms r.meter *. Calib.kernel_ms r.meter in
  Printf.printf "calibration kernel promoted %.0f words in total\n" !Calib.promoted;
  if !Calib.promoted > 100.0 *. units then failwith "the calibration kernel promotes to the major heap";
  Option.iter (fun e -> Printf.printf "first failure: %s\n" e) r.first_error;
  print_endline
    (result_line ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics)

let usage =
  "main.exe --workload (xmark-scan|xmark-hot|health-churn) --seed N --seconds S --trace (0|1)\n\
   main.exe --selftest"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "workload name";
      "--seed", Arg.Set_int seed, "input seed";
      "--seconds", Arg.Set_float seconds, "measured loop length";
      "--trace", Arg.Set_int trace, "1 for the traced per-layer run";
      "--selftest", Arg.Set selftest, "show that the checker catches faults, then exit" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !selftest then begin
    match Check.self_test () with
    | Ok () ->
      print_endline
        "checker self-test: caught a dropped answer, a wrong value and a shipment missing an \
         answer block";
      exit 0
    | Error msg ->
      prerr_endline ("checker self-test failed: " ^ msg);
      exit 1
  end;
  match Work.of_name !workload with
  | None ->
    prerr_endline usage;
    exit 2
  | Some workload ->
    (try run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
     | Failure msg ->
       prerr_endline ("perfbench: " ^ msg);
       exit 1)
