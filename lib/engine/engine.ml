module Lru = Lru
module Stats = Stats
module Estimate = Estimate
module Plan = Plan
module Planner = Planner
module Exec = Exec

let log_src = Logs.Src.create "engine" ~doc:"Cost-based evaluation engine"

module Log = (val Logs.src_log log_src)

type config = {
  planner : bool;
  caches : bool;
  plan_capacity : int;
  result_capacity : int;
  block_capacity : int;
}

let default_config =
  { planner = true;
    caches = true;
    plan_capacity = 128;
    result_capacity = 64;
    block_capacity = 256 }

type outcome =
  | Hit
  | Miss
  | Bypass

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

(* Per-engine metric registry (always enabled — the engine's own stats
   are part of its contract).  Counters live here rather than in
   mutable fields so a rehost flush can reset them wholesale and
   external consumers (sxq stats) can snapshot them uniformly. *)
type counters = {
  reg : Obs.Metric.registry;
  queries : Obs.Metric.counter;
  plans_compiled : Obs.Metric.counter;
  steps_reordered : Obs.Metric.counter;
}

let make_counters () =
  let reg = Obs.Metric.create ~enabled:true () in
  { reg;
    queries = Obs.Metric.counter reg "engine.queries" ~help:"queries evaluated";
    plans_compiled =
      Obs.Metric.counter reg "engine.plans_compiled" ~help:"plans compiled (cache misses)";
    steps_reordered =
      Obs.Metric.counter reg "engine.steps_reordered" ~help:"join steps moved by the planner" }

type t = {
  config : config;
  mutable system : Secure.System.t;
  mutable est : Estimate.t;
  plans : (string, Plan.t) Lru.t;
  results : (string, Exec.run) Lru.t;
  blocks : (int * int, Secure.Client.answer) Lru.t;
      (* keyed by (block id, block generation): a delta bumps only the
         touched blocks' generations, so untouched entries stay valid
         and warm across updates *)
  lock : Parallel.Lock.t;
      (* guards every cache and counter touch during [evaluate_batch];
         the sequential entry points run on one domain and need it only
         because a batch may be in flight on the same engine *)
  c : counters;
  mutable invalidations : int;
      (* monotone across rehosts by design: it counts hosting
         generations this engine outlived, unlike the per-generation
         registry counters which {!flush} resets *)
}

let flush t =
  Lru.clear t.plans;
  Lru.clear t.results;
  Lru.clear t.blocks;
  (* The superseded hosting's artifacts are gone; stats that mixed the
     old generation's hit rates with the new one's were a bug (the
     planner would mis-trust stale rates).  Reset everything except the
     invalidation count itself. *)
  Lru.reset_counters t.plans;
  Lru.reset_counters t.results;
  Lru.reset_counters t.blocks;
  Obs.Metric.reset t.c.reg;
  t.invalidations <- t.invalidations + 1;
  Log.debug (fun m -> m "caches flushed (invalidation %d)" t.invalidations)

(* Selective invalidation for a delta update: the result memo is
   flushed wholesale (a memoised response may need to GAIN blocks after
   an insert or value change, so per-block eviction of memos is
   unsound), but compiled plans stay (any plan is a correct plan) and
   decrypted-block entries survive for every untouched block — only the
   superseded (id, generation) keys are dropped.  Counters are NOT
   reset: the survival of warm entries across an update is exactly what
   they should show. *)
let absorb_delta t (event : Secure.System.delta_event) =
  Lru.clear t.results;
  List.iter
    (fun (id, old_gen, _new_gen) -> Lru.remove t.blocks (id, old_gen))
    event.Secure.System.touched_blocks;
  List.iter
    (fun (id, old_gen) -> Lru.remove t.blocks (id, old_gen))
    event.Secure.System.dropped_blocks;
  t.invalidations <- t.invalidations + 1;
  Log.debug (fun m ->
      m "delta invalidation %d: %d touched, %d dropped, results flushed"
        t.invalidations
        (List.length event.Secure.System.touched_blocks)
        (List.length event.Secure.System.dropped_blocks))

(* Bind the engine to a hosting: refresh the statistics snapshot and
   arm the invalidation hooks that fire when this hosting is superseded
   — wholesale on update/rotate, per-block on apply_delta. *)
let attach t system =
  t.system <- system;
  t.est <- Estimate.of_server (Secure.System.server system);
  Secure.System.on_rehost system (fun () -> flush t);
  Secure.System.on_delta system (fun event -> absorb_delta t event)

let create ?(config = default_config) system =
  let cap c = if config.caches then Int.max 0 c else 0 in
  let t =
    { config;
      system;
      est = Estimate.of_server (Secure.System.server system);
      plans = Lru.create (cap config.plan_capacity);
      results = Lru.create (cap config.result_capacity);
      blocks = Lru.create (cap config.block_capacity);
      lock = Parallel.Lock.create ();
      c = make_counters ();
      invalidations = 0 }
  in
  Secure.System.on_rehost system (fun () -> flush t);
  Secure.System.on_delta system (fun event -> absorb_delta t event);
  t

let system t = t.system
let registry t = t.c.reg

let update t edit =
  (* System.update fires the old hosting's rehost hooks, which flush
     this engine's caches; attach then re-arms on the new hosting. *)
  let next, cost = Secure.System.update t.system edit in
  attach t next;
  cost

let rotate t ~new_master =
  let next, cost = Secure.System.rotate t.system ~new_master in
  attach t next;
  cost

let apply_delta t edit =
  (* System.apply_delta fires the old hosting's delta hooks (or, when
     it falls back to a full rebuild, its rehost hooks) before
     returning; attach then re-arms both on the new hosting. *)
  let next, cost = Secure.System.apply_delta t.system edit in
  attach t next;
  cost

(* The cache key IS the wire request: the ciphertext encoding of the
   translated query (Vernam tokens + OPESS ranges) that the server
   sees on every evaluation anyway.  Exposed so tests can assert the
   engine keys on nothing beyond it. *)
let wire_request t query =
  Secure.Protocol.encode_request
    (Secure.Client.translate (Secure.System.client t.system) query)

let now_ms () = Unix.gettimeofday () *. 1000.0

let timed f =
  let start = now_ms () in
  let result = f () in
  result, now_ms () -. start

type report = {
  plan : Plan.t;
  plan_outcome : outcome;
  result_outcome : outcome;
  steps : Exec.step_actual list;
  request_bytes : int;
  block_hits : int;
  block_misses : int;
  translate_ms : float;
  plan_ms : float;
  server_ms : float;
  transmit_bytes : int;
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  blocks_decrypted : int;
  answer_count : int;
}

let server_decrypt_ms r = r.server_ms +. r.decrypt_ms

let one_if = function Hit -> 1 | Miss | Bypass -> 0
let miss_if = function Miss -> 1 | Hit | Bypass -> 0

(* Translation runs on the calling domain: OPESS translation memoises
   inside each catalog's OPE instance. *)
let translate t query =
  let squery, translate_ms =
    timed (fun () -> Secure.Client.translate (Secure.System.client t.system) query)
  in
  query, squery, Secure.Protocol.encode_request squery, translate_ms

(* The engine's one evaluation lane: plan (plan cache), execute (result
   memo), decrypt through the block cache, post-process.  A cached
   block is neither re-shipped nor re-decrypted, so both byte and
   decrypt accounting follow it.  Every cache and counter touch goes
   through [t.lock]; the expensive work — plan compilation, server
   execution, block decryption, post-processing — runs outside it, so
   pool workers may run lanes concurrently.  Pool workers pass
   [traced:false]: the tracer and ledger are single-domain structures,
   so the lane hands its ledger round back unrecorded and the caller
   records it on the calling domain. *)
let lane t ~traced (query, squery, req, translate_ms) =
  let locked f = Parallel.Lock.protect t.lock f in
  let span name f =
    if traced then Obs.span (Secure.System.tracer t.system) name f else f ()
  in
  let outcome hit = if not t.config.caches then Bypass else if hit then Hit else Miss in
  locked (fun () -> Obs.Metric.incr t.c.queries);
  let client = Secure.System.client t.system in
  let (plan, plan_outcome), plan_ms =
    span "engine.plan" @@ fun () ->
    timed (fun () ->
        match locked (fun () -> Lru.find t.plans req) with
        | Some plan -> plan, outcome true
        | None ->
          let plan = Planner.compile ~reorder:t.config.planner t.est squery in
          locked (fun () ->
              Obs.Metric.incr t.c.plans_compiled;
              Obs.Metric.add t.c.steps_reordered (Plan.reorder_span plan);
              Lru.put t.plans req plan);
          plan, outcome false)
  in
  let (run, result_outcome), server_ms =
    span "engine.exec" @@ fun () ->
    timed (fun () ->
        match locked (fun () -> Lru.find t.results req) with
        | Some run -> run, outcome true
        | None ->
          let run = Exec.run (Secure.System.server t.system) plan squery in
          locked (fun () -> Lru.put t.results req run);
          run, outcome false)
  in
  let response = run.Exec.response in
  let shipped = ref 0 in
  let block_hits = ref 0 in
  let block_misses = ref 0 in
  let decrypted, decrypt_ms =
    timed (fun () ->
        List.map
          (fun b ->
            let id = b.Secure.Encrypt.id in
            let key = id, b.Secure.Encrypt.generation in
            match locked (fun () -> Lru.find t.blocks key) with
            | Some tree ->
              incr block_hits;
              id, tree
            | None ->
              incr block_misses;
              shipped :=
                !shipped
                + String.length b.Secure.Encrypt.ciphertext
                + Secure.Encrypt.block_header_bytes;
              let tree = Secure.Client.decrypt_block client b in
              locked (fun () -> Lru.put t.blocks key tree);
              id, tree)
          response.Secure.Server.blocks)
  in
  let answers, postprocess_ms =
    timed (fun () -> Secure.Client.evaluate_with client ~decrypted query)
  in
  let report =
    { plan;
      plan_outcome;
      result_outcome;
      steps = run.Exec.steps;
      request_bytes = String.length req;
      block_hits = !block_hits;
      block_misses = !block_misses;
      translate_ms;
      plan_ms;
      server_ms;
      transmit_bytes = String.length req + !shipped;
      decrypt_ms;
      postprocess_ms;
      blocks_returned = List.length response.Secure.Server.blocks;
      blocks_decrypted = !block_misses;
      answer_count = List.length answers }
  in
  (* One ledger round per engine evaluation, on the bound system's
     ledger, built from wire and cache facts only.  Cache outcomes are
     server-visible: the plan cache and result memo live server-side,
     and a client block-cache hit means one fewer block crossed the
     wire. *)
  let record () =
    let ledger = Secure.System.ledger t.system in
    if Obs.Ledger.enabled ledger then
      Obs.Ledger.record ledger
        (Obs.Ledger.round "engine" ~bytes_up:(String.length req) ~bytes_down:!shipped
           ~intervals_touched:response.Secure.Server.candidate_intervals
           ~btree_hits:response.Secure.Server.btree_hits
           ~blocks_returned:(List.length response.Secure.Server.blocks)
           ~block_ids:(List.map (fun b -> b.Secure.Encrypt.id) response.Secure.Server.blocks)
           ~cache_hits:(one_if plan_outcome + one_if result_outcome + !block_hits)
           ~cache_misses:(miss_if plan_outcome + miss_if result_outcome + !block_misses))
  in
  answers, report, record

let evaluate_report t query =
  Obs.span (Secure.System.tracer t.system) "engine.evaluate" @@ fun () ->
  let answers, report, record = lane t ~traced:true (translate t query) in
  record ();
  answers, report

let evaluate t query = fst (evaluate_report t query)

(* Batched evaluation over the system's domain pool.  Answers are
   cache-independent, so result [i] is exactly [evaluate t queries.(i)];
   only the cache accounting can differ from a sequential replay
   (concurrent lanes may both miss on the same key and compile or
   decrypt twice — the last put wins, and both values are equal). *)
let evaluate_batch t queries =
  match Secure.System.pool t.system with
  | Some p when Parallel.Pool.size p > 1 ->
    let translated = Array.map (translate t) queries in
    Array.map
      (fun (answers, report, record) ->
        record ();
        answers, report)
      (Parallel.Pool.map p (lane t ~traced:false) translated)
  | Some _ | None -> Array.map (evaluate_report t) queries

let stats t =
  { Stats.queries = Obs.Metric.value t.c.queries;
    plans_compiled = Obs.Metric.value t.c.plans_compiled;
    steps_reordered = Obs.Metric.value t.c.steps_reordered;
    invalidations = t.invalidations;
    plan_hits = Lru.hits t.plans;
    plan_misses = Lru.misses t.plans;
    plan_evictions = Lru.evictions t.plans;
    result_hits = Lru.hits t.results;
    result_misses = Lru.misses t.results;
    result_evictions = Lru.evictions t.results;
    block_hits = Lru.hits t.blocks;
    block_misses = Lru.misses t.blocks;
    block_evictions = Lru.evictions t.blocks }
