module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

let log_src = Logs.Src.create "secure.system" ~doc:"Hosted-system lifecycle"

module Log = (val Logs.src_log log_src)

(* Process-wide system counters on Obs.Metric.default (disabled by
   default).  [system.degraded] makes naive-evaluate fallbacks visible
   to operators without tracing: before it existed a degraded query was
   indistinguishable from a clean one unless the caller inspected every
   cost record or enabled the ledger. *)
module M = struct
  let reg = Obs.Metric.default

  let degraded =
    Obs.Metric.counter reg "system.degraded"
      ~help:"queries answered by the naive fallback after the metadata path gave up"

  let relinks =
    Obs.Metric.counter reg "system.relinks"
      ~help:"session links torn down and re-established"
end

(* The wire between client and server: a framed session over a
   (possibly fault-injecting) transport.  Built once per system; the
   endpoint wraps the server's answer function. *)
type link = {
  transport : Transport.t;
  session : Session.t;
  endpoint : Session.endpoint;
  faulty : bool;
}

(* What a delta update changed, block-wise: enough for per-block cache
   invalidation without flushing artifacts derived from untouched
   blocks. *)
type delta_event = {
  touched_blocks : (int * int * int) list;  (* id, old gen, new gen *)
  dropped_blocks : (int * int) list;        (* id, old gen *)
  structural : bool;
}

type t = {
  doc : Doc.t;
  master : string;
  cipher : Crypto.Cipher.suite;
  constraints : Sc.t list;
  scheme : Scheme.t;
  db : Encrypt.db;
  metadata : Metadata.t;
  value_index : Metadata.index_policy;
  client : Client.t;
  server : Server.t;
  link : link;
  pool : Parallel.Pool.t option;
  trace : Obs.Trace.t;    (* shared with the server; disabled by default *)
  ledger : Obs.Ledger.t;  (* per-round server-visible facts *)
  generation : int;
  rehost_hooks : (unit -> unit) list ref;
      (* observers (caches, engines) to notify when this hosting is
         superseded by update/update_all/rotate; shared by the
         with_faults record copy, which is the same hosting rewired *)
  delta_hooks : (delta_event -> unit) list ref;
      (* observers to notify when a delta supersedes this hosting with
         a block-level changelist instead of a wholesale re-host *)
}

(* Re-hosting replaces every ciphertext artifact (blocks, tokens, OPE
   keys, DSI weights), so anything derived from a system must be
   dropped when its generation is superseded. *)
let generation_counter = ref 0

let next_generation () =
  incr generation_counter;
  !generation_counter

let generation t = t.generation

let on_rehost t f = t.rehost_hooks := f :: !(t.rehost_hooks)

let fire_rehost t =
  List.iter (fun f -> f ()) !(t.rehost_hooks);
  t.rehost_hooks := []

let on_delta t f = t.delta_hooks := f :: !(t.delta_hooks)

let fire_delta t event =
  List.iter (fun f -> f event) !(t.delta_hooks);
  t.delta_hooks := []

type cost = {
  translate_ms : float;
  server_ms : float;
  transmit_bytes : int;
  transmit_ms : float;
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  answer_count : int;
  attempts : int;
  retransmitted_bytes : int;
  faults_absorbed : int;
  replays : int;
  degraded : bool;
}

(* 100 Mbps = 12.5 MB/s = 12500 bytes per ms. *)
let link_bytes_per_ms = 12_500.0

let total_ms c =
  c.translate_ms +. c.server_ms +. c.transmit_ms +. c.decrypt_ms +. c.postprocess_ms

type setup_cost = {
  scheme_build_ms : float;
  encrypt_ms : float;
  metadata_ms : float;
  scheme_size_nodes : int;
  block_count : int;
  server_data_bytes : int;
  metadata_bytes : int;
}

let now_ms () = Unix.gettimeofday () *. 1000.0

let timed f =
  let start = now_ms () in
  let result = f () in
  result, now_ms () -. start

let session_mac_label = "session-mac"

let make_link ?session_config ?faults keys server =
  let mac_key = Crypto.Keys.derive keys session_mac_label in
  let handler request =
    let response =
      match Protocol.decode_any request with
      | Protocol.Query q -> Server.answer server q
      | Protocol.Fetch ids -> Server.fetch server ids
      | Protocol.Padded (q, extra) -> Server.answer_padded server q ~extra
    in
    Protocol.encode_response response
  in
  let endpoint = Session.endpoint ~mac_key ~handler () in
  let transport = Transport.loopback (Session.serve endpoint) in
  let transport =
    match faults with
    | None -> transport
    | Some (profile, seed) -> Transport.faulty ~profile ~seed transport
  in
  { transport; session = Session.client ?config:session_config ~mac_key transport;
    endpoint;
    faulty = faults <> None }

let setup ?(master = "secure-xml-master-key") ?(cipher = Crypto.Cipher.Xtea)
    ?(value_index = Metadata.All_leaves) ?pool doc scs kind =
  let keys = Crypto.Keys.create ~suite:cipher ~master () in
  let trace = Obs.Trace.create () in
  let ledger = Obs.Ledger.create () in
  let scheme, scheme_build_ms = timed (fun () -> Scheme.build doc scs kind) in
  (match Scheme.enforces doc scheme scs with
   | Ok () -> ()
   | Error msg -> invalid_arg ("System.setup: scheme does not enforce SCs: " ^ msg));
  let db, encrypt_ms = timed (fun () -> Encrypt.encrypt ?pool ~keys doc scheme) in
  let metadata, metadata_ms =
    timed (fun () -> Metadata.build ?pool ~keys ~policy:value_index db)
  in
  let client = Client.create ~keys metadata db in
  let server = Server.of_metadata ~trace metadata (Encrypt.server_blocks db) in
  Log.info (fun m ->
      m "setup: scheme %s, %d blocks (%.0f ms), metadata %d B (%.0f ms), cipher %s"
        (Scheme.kind_to_string kind)
        (Scheme.block_count scheme)
        encrypt_ms
        (Metadata.metadata_bytes metadata)
        metadata_ms
        (Crypto.Cipher.suite_to_string cipher));
  let system =
    { doc; master; cipher; constraints = scs; scheme; db; metadata;
      value_index; client; server;
      link = make_link keys server;
      pool;
      trace;
      ledger;
      generation = next_generation ();
      rehost_hooks = ref [];
      delta_hooks = ref [] }
  in
  let cost =
    { scheme_build_ms;
      encrypt_ms;
      metadata_ms;
      scheme_size_nodes = Scheme.size doc scheme;
      block_count = Scheme.block_count scheme;
      server_data_bytes = Encrypt.server_bytes db;
      metadata_bytes = Metadata.metadata_bytes metadata }
  in
  system, cost

(* Rebuild the live client/server pair from persisted parts (used by
   Persist.load); no scheme construction, encryption or metadata work
   happens here. *)
let restore ~master ?(cipher = Crypto.Cipher.Xtea)
    ?(value_index = Metadata.All_leaves) ?pool ~doc ~constraints ~scheme ~db
    ~metadata () =
  let keys = Crypto.Keys.create ~suite:cipher ~master () in
  let trace = Obs.Trace.create () in
  let server = Server.of_metadata ~trace metadata (Encrypt.server_blocks db) in
  { doc;
    master;
    cipher;
    constraints;
    scheme;
    db;
    metadata;
    value_index;
    client = Client.create ~keys metadata db;
    server;
    link = make_link keys server;
    pool;
    trace;
    ledger = Obs.Ledger.create ();
    generation = next_generation ();
    rehost_hooks = ref [];
    delta_hooks = ref [] }

(* Rewire the same hosted system behind a chaotic link.  The server
   state is shared; only the wire path (and retry policy) changes. *)
let with_faults ?session ~profile ~seed t =
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with
    link = make_link ?session_config:session ~faults:(profile, seed) keys t.server }

(* Link incarnation boundary: close the old session (it refuses further
   calls) and build a fresh link — new client sequence numbers, new
   endpoint, and therefore an *empty* replay cache.  Without the close,
   a caller still holding the old record could warm the dead
   incarnation's cache and make replay accounting lie across the
   teardown; with it, the two incarnations are observably disjoint. *)
let reset_link ?session ?faults t =
  Session.close t.link.session;
  Obs.Metric.incr M.relinks;
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with link = make_link ?session_config:session ?faults keys t.server }

let session_stats t = Session.stats t.link.session
let transport_stats t = Transport.stats t.link.transport
let endpoint_stats t = Session.endpoint_stats t.link.endpoint

let tracer t = t.trace
let ledger t = t.ledger

let doc t = t.doc
let master t = t.master
let cipher t = t.cipher
let constraints t = t.constraints
let scheme t = t.scheme
let db t = t.db
let metadata t = t.metadata
let client t = t.client
let server t = t.server
let pool t = t.pool

(* What the session layer did during one wire round, as stat deltas
   around it.  Retransmitted frames are byte-identical, so each
   replay-cache hit at the endpoint is a retransmit the server linked
   with certainty (see docs/SECURITY.md). *)
type retries = {
  attempts : int;
  retransmitted_bytes : int;
  faults_absorbed : int;
  replays : int;
}

let clean = { attempts = 1; retransmitted_bytes = 0; faults_absorbed = 0; replays = 0 }

let cost_of ~(retries : retries) ~degraded ~translate_ms ~server_ms ~bytes
    ~decrypt_ms ~postprocess_ms ~blocks ~answers =
  { translate_ms;
    server_ms;
    transmit_bytes = bytes;
    transmit_ms = float_of_int bytes /. link_bytes_per_ms;
    decrypt_ms;
    postprocess_ms;
    blocks_returned = blocks;
    answer_count = answers;
    attempts = retries.attempts;
    retransmitted_bytes = retries.retransmitted_bytes;
    faults_absorbed = retries.faults_absorbed;
    replays = retries.replays;
    degraded }

(* What crossed the wire in one round: every figure a wire fact of the
   request/response framing, never of decrypted content. *)
type wire = {
  request_bytes : int;
  response_bytes : int;
  intervals_touched : int;
  btree_hits : int;
  shipped : Encrypt.block list;  (* in shipping order *)
  wire_ms : float;
  retries : retries;
}

(* One wire round: encode each request, [Session.call] it (framing,
   MAC, retries), decode the response, and measure what the session
   layer did meanwhile.  A response that authenticates but fails
   protocol decoding is reported as Malformed rather than letting the
   exception escape — under a surviving fault schedule the caller must
   never crash.  The branches of a union make one round, whose shipment
   is the id-ordered union of the responses' blocks (a single response
   already ships its blocks id-ordered and unique).  Touches neither
   tracer nor ledger, so pool workers may run it on private links. *)
let exchange link requests =
  let before = Session.stats link.session in
  let replays_before = (Session.endpoint_stats link.endpoint).Session.replayed in
  let rec calls acc = function
    | [] -> Ok (List.rev acc)
    | request :: rest ->
      let frame = Protocol.encode_any request in
      (match Session.call link.session frame with
       | Error e -> Error e
       | Ok payload ->
         (match Protocol.decode_response payload with
          | exception Protocol.Malformed _ -> Error Session.Malformed
          | response -> calls ((String.length frame, response) :: acc) rest))
  in
  let result, wire_ms = timed (fun () -> calls [] requests) in
  let after = Session.stats link.session in
  let retries =
    { attempts = after.Session.attempts - before.Session.attempts;
      retransmitted_bytes =
        after.Session.retransmitted_bytes - before.Session.retransmitted_bytes;
      faults_absorbed = Session.faults_absorbed after - Session.faults_absorbed before;
      replays = (Session.endpoint_stats link.endpoint).Session.replayed - replays_before }
  in
  match result with
  | Error e -> Error (e, retries)
  | Ok exchanged ->
    let sum f = List.fold_left (fun acc (req, r) -> acc + f req r) 0 exchanged in
    Ok
      { request_bytes = sum (fun req _ -> req);
        response_bytes = sum (fun _ r -> r.Server.bytes);
        intervals_touched = sum (fun _ r -> r.Server.candidate_intervals);
        btree_hits = sum (fun _ r -> r.Server.btree_hits);
        shipped =
          (match exchanged with
           | [ (_, r) ] -> r.Server.blocks
           | _ ->
             List.sort_uniq
               (fun a b -> compare a.Encrypt.id b.Encrypt.id)
               (List.concat_map (fun (_, r) -> r.Server.blocks) exchanged));
        wire_ms;
        retries }

(* Shipped-block ids in shipping order — the access pattern the ledger
   records and the adversary simulator replays.  A pure wire fact: ids
   are response-header fields, never decrypted content. *)
let ids_of blocks = List.map (fun b -> b.Encrypt.id) blocks

(* The ledger round of a wire round, under the caller's label. *)
let record_wire t ~label w =
  if Obs.Ledger.enabled t.ledger then
    Obs.Ledger.record t.ledger
      (Obs.Ledger.round label ~bytes_up:w.request_bytes ~bytes_down:w.response_bytes
         ~intervals_touched:w.intervals_touched ~btree_hits:w.btree_hits
         ~blocks_returned:(List.length w.shipped) ~block_ids:(ids_of w.shipped)
         ~attempts:w.retries.attempts ~replays:w.retries.replays)

let wire_round t ~label requests =
  Obs.span t.trace "wire.exchange" @@ fun () ->
  match exchange t.link requests with
  | Error _ as failed -> failed
  | Ok w ->
    record_wire t ~label w;
    Ok w

let wire_cost w ~translate_ms ~decrypt_ms ~postprocess_ms ~answers =
  cost_of ~retries:w.retries ~degraded:false ~translate_ms ~server_ms:w.wire_ms
    ~bytes:(w.request_bytes + w.response_bytes) ~decrypt_ms ~postprocess_ms
    ~blocks:(List.length w.shipped) ~answers

(* The single candidate-block decrypt step shared by every evaluation
   path: metadata protocol, naive fallback, unions and aggregates.
   Per-block verify+decrypt is independent (nonce and MAC are keyed by
   the block id) and results keep list order, so the pooled fan-out
   returns exactly what the sequential fold would.  When called from
   inside a pool worker (see [evaluate_batch]) the nested map degrades
   to sequential on that worker — correct either way. *)
let decrypt_blocks t blocks =
  timed (fun () ->
      let keys = Client.keys t.client in
      let one b = b.Encrypt.id, Encrypt.decrypt_block ~keys b in
      match t.pool with
      | Some p when Parallel.Pool.size p > 1 -> Parallel.Pool.map_list p one blocks
      | Some _ | None -> List.map one blocks)

(* The client half of a wire round: decrypt the shipment, post-process
   the decrypted view, cost the round.  Pool workers pass
   [traced:false]: the tracer is a single-domain structure. *)
let answer_round t ~traced ~translate_ms ~postprocess w =
  let span name f = if traced then Obs.span t.trace name f else f () in
  let decrypted, decrypt_ms =
    span "client.decrypt" (fun () -> decrypt_blocks t w.shipped)
  in
  let answers, postprocess_ms =
    span "client.postprocess" (fun () -> timed (fun () -> postprocess decrypted))
  in
  answers, wire_cost w ~translate_ms ~decrypt_ms ~postprocess_ms ~answers:(List.length answers)

(* Every exchange crosses the wire format: the server decodes the
   request bytes, the client decodes the response bytes — exactly the
   Figure 1 data flow, framed and retried by the session layer.  The
   error carries the failed round's retries for the degradation step. *)
let round t ~name ~label ~requests ~postprocess =
  Obs.span t.trace name @@ fun () ->
  let requests, translate_ms =
    Obs.span t.trace "client.translate" @@ fun () -> timed requests
  in
  Result.map
    (answer_round t ~traced:true ~translate_ms ~postprocess)
    (wire_round t ~label requests)

let strict result = Result.map_error fst result

let answers_of t query decrypted = Client.evaluate_with t.client ~decrypted query

let query_round t query =
  round t ~name:"system.evaluate" ~label:"evaluate"
    ~requests:(fun () -> [ Protocol.Query (Client.translate t.client query) ])
    ~postprocess:(answers_of t query)

let try_evaluate t query = strict (query_round t query)

(* The ship-everything round: the naive baseline and, with [degraded],
   the degradation step.  It reads the server state directly — no
   metadata round trip to fail — so it answers under any fault
   schedule.  Its ledger facts are those of the ciphertext store alone,
   never projected out of the (secret) answers. *)
let ship_everything t ~label ~retries ~degraded ~postprocess =
  let shipped = Server.all_blocks t.server in
  let bytes =
    List.fold_left
      (fun acc b -> acc + String.length b.Encrypt.ciphertext + Encrypt.block_header_bytes)
      0 shipped
  in
  if Obs.Ledger.enabled t.ledger then
    Obs.Ledger.record t.ledger
      (Obs.Ledger.round label ~bytes_down:bytes ~blocks_returned:(List.length shipped)
         ~block_ids:(ids_of shipped) ~attempts:retries.attempts ~replays:retries.replays
         ~degraded);
  let decrypted, decrypt_ms = decrypt_blocks t shipped in
  let answers, postprocess_ms = timed (fun () -> postprocess decrypted) in
  ( answers,
    cost_of ~retries ~degraded ~translate_ms:0.0 ~server_ms:0.0 ~bytes ~decrypt_ms
      ~postprocess_ms ~blocks:(List.length shipped) ~answers:(List.length answers) )

let naive_evaluate t query =
  Obs.span t.trace "system.naive_evaluate" @@ fun () ->
  ship_everything t ~label:"naive" ~retries:clean ~degraded:false
    ~postprocess:(answers_of t query)

(* Degradation ladder: the metadata path retries inside Session.call;
   if it still fails, fall back to the naive ship-everything semantics,
   so answers stay exact under any survivable fault schedule. *)
let degrade t (err, retries) ~postprocess =
  Log.warn (fun m ->
      m "metadata path failed (%s): degrading to naive evaluation"
        (Session.error_to_string err));
  Obs.Metric.incr M.degraded;
  ship_everything t ~label:"degraded" ~retries ~degraded:true ~postprocess

let evaluate t query =
  match query_round t query with
  | Ok result -> result
  | Error failure -> degrade t failure ~postprocess:(answers_of t query)

(* ------------------------------------------------------------------ *)
(* Mitigation primitives (the Mitigate layer's wire operations)        *)

(* Cover traffic: a Fetch round whose blocks the client discards
   undecrypted — only the traffic shape matters, so the cost carries no
   decrypt/postprocess time and no answers. *)
let fetch_blocks t ids =
  Obs.span t.trace "system.fetch" @@ fun () ->
  strict
    (Result.map
       (wire_cost ~translate_ms:0.0 ~decrypt_ms:0.0 ~postprocess_ms:0.0 ~answers:0)
       (wire_round t ~label:"fetch" [ Protocol.Fetch ids ]))

(* The padded twin of [try_evaluate]: the shipment is widened to the
   requested envelope but stays a superset of the honest answer, and
   client-side filtering is already superset-tolerant (the naive path
   ships everything), so answers are byte-identical to the unpadded
   round. *)
let try_evaluate_padded t ~extra query =
  strict
    (round t ~name:"system.evaluate_padded" ~label:"padded"
       ~requests:(fun () -> [ Protocol.Padded (Client.translate t.client query, extra) ])
       ~postprocess:(answers_of t query))

(* Union queries: one server exchange per branch in one wire round, one
   combined block set, one client-side union evaluation (node-level
   dedup). *)
let union_answers_of t queries decrypted =
  Client.evaluate_union_with t.client ~decrypted queries

let union_round t queries =
  round t ~name:"system.evaluate_union" ~label:"union"
    ~requests:(fun () ->
      List.map (fun q -> Protocol.Query (Client.translate t.client q)) queries)
    ~postprocess:(union_answers_of t queries)

let try_evaluate_union t queries = strict (union_round t queries)

let evaluate_union t queries =
  match union_round t queries with
  | Ok result -> result
  | Error failure -> degrade t failure ~postprocess:(union_answers_of t queries)

(* ------------------------------------------------------------------ *)
(* Batched evaluation                                                  *)

(* Fan the independent queries of a workload across the pool, against
   the shared read-only server.  Three things keep this exactly
   equivalent to evaluating the queries one at a time:

   - translation happens up front on the calling domain, in query
     order: OPESS translation memoises inside each catalog's OPE
     instance, which parallel translation would race on;

   - each lane gets a private session link (the system's own session
     is stateful: sequence numbers, stats), built over the same
     endpoint handler, so every request/response crosses the same wire
     format and the server answers from the same read-only state;

   - results merge by input index (the pool's deterministic-merge
     contract), so answers and costs line up with the query array.

   Ledger rounds (label "batch"), metrics and any degradation happen
   after the merge, on the calling domain: the ledger and the default
   registry are single-domain structures.  Lane endpoints are private
   and discarded, so their replay caches never outlive a query.

   A chaotic link serialises: retry schedules are deterministic per
   session, and interleaving lanes over a shared fault schedule would
   change which faults hit which query. *)
let evaluate_batch t queries =
  match t.pool with
  | Some p when Parallel.Pool.size p > 1 && not t.link.faulty ->
    let keys = Client.keys t.client in
    let translated =
      Array.map (fun q -> q, timed (fun () -> Client.translate t.client q)) queries
    in
    let lanes =
      Parallel.Pool.map p
        (fun (query, (squery, translate_ms)) ->
          Result.map
            (fun w ->
              w, answer_round t ~traced:false ~translate_ms ~postprocess:(answers_of t query) w)
            (exchange (make_link keys t.server) [ Protocol.Query squery ]))
        translated
    in
    Array.map2
      (fun query -> function
        | Ok (w, result) ->
          record_wire t ~label:"batch" w;
          result
        | Error failure -> degrade t failure ~postprocess:(answers_of t query))
      queries lanes
  | Some _ | None -> Array.map (evaluate t) queries

let reference_union t queries =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval_union t.doc queries)

let reference t query =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval t.doc query)

(* ------------------------------------------------------------------ *)
(* Aggregates (Section 6.4)                                            *)

(* Compare values the way predicate evaluation does: numerically when
   both sides parse as numbers. *)
let value_compare a b =
  match float_of_string_opt a, float_of_string_opt b with
  | Some x, Some y -> Float.compare x y
  | Some _, None | None, Some _ | None, None -> String.compare a b

let leaf_values trees =
  List.filter_map
    (function
      | Tree.Element (_, [ Tree.Text v ]) -> Some v
      | Tree.Element _ | Tree.Text _ -> None)
    trees

let extreme direction values =
  let better a b =
    match direction with
    | `Min -> if value_compare a b <= 0 then a else b
    | `Max -> if value_compare a b >= 0 then a else b
  in
  match values with
  | [] -> None
  | v :: rest -> Some (List.fold_left better v rest)

let aggregate t direction query =
  let squery, translate_ms = timed (fun () -> Client.translate t.client query) in
  match
    (* The no-decryption fast path needs the server's candidate set to
       be exact, which structural joins guarantee only in the absence
       of value predicates (those are resolved at block granularity and
       may admit false positives under coarse schemes). *)
    if Squery.has_value_predicate squery then None
    else Client.aggregate_range t.client query
  with
  | None ->
    (* Fall back to the ordinary protocol and aggregate client-side. *)
    let answers, cost = evaluate t query in
    extreme direction (leaf_values answers), cost
  | Some key_range ->
    let response, server_ms =
      timed (fun () -> Server.answer_extreme t.server squery ~key_range ~direction)
    in
    let decrypted, decrypt_ms = decrypt_blocks t response.Server.blocks in
    let result, postprocess_ms =
      timed (fun () ->
          extreme direction
            (leaf_values (Client.evaluate_with t.client ~decrypted query)))
    in
    if Obs.Ledger.enabled t.ledger then
      Obs.Ledger.record t.ledger
        (Obs.Ledger.round "aggregate" ~bytes_down:response.Server.bytes
           ~intervals_touched:response.Server.candidate_intervals
           ~btree_hits:response.Server.btree_hits
           ~blocks_returned:(List.length response.Server.blocks)
           ~block_ids:(ids_of response.Server.blocks));
    ( result,
      cost_of ~retries:clean ~degraded:false ~translate_ms ~server_ms
        ~bytes:response.Server.bytes ~decrypt_ms ~postprocess_ms
        ~blocks:(List.length response.Server.blocks)
        ~answers:(match result with Some _ -> 1 | None -> 0) )

let count t query =
  (* COUNT cannot be answered from the index (splitting and scaling
     distort entry counts, Section 5.2): decrypt and count. *)
  let answers, cost = evaluate t query in
  List.length answers, cost

let reference_aggregate t direction query =
  extreme direction (leaf_values (reference t query))

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* Key rotation: re-host the same document under a fresh master secret
   (new block keys, pads, OPE keys, weights — everything re-derives).
   Old persisted bundles stop authenticating, by construction. *)
let rotate t ~new_master =
  let result =
    setup ~master:new_master ~cipher:t.cipher ?pool:t.pool t.doc t.constraints
      t.scheme.Scheme.kind
  in
  fire_rehost t;
  result

let update t edit =
  Log.info (fun m -> m "update: %s; re-hosting" (Update.describe edit));
  let edited = Doc.of_tree (Update.apply t.doc edit) in
  let result =
    setup ~master:t.master ~cipher:t.cipher ?pool:t.pool edited t.constraints
      t.scheme.Scheme.kind
  in
  fire_rehost t;
  result

let update_all t edits =
  let edited = Update.apply_all t.doc edits in
  let result =
    setup ~master:t.master ~cipher:t.cipher ?pool:t.pool edited t.constraints
      t.scheme.Scheme.kind
  in
  fire_rehost t;
  result

(* ------------------------------------------------------------------ *)
(* Incremental delta updates                                           *)

type delta_cost = {
  plan_ms : float;
  reencrypt_ms : float;
  patch_ms : float;
  rebuild_ms : float;
  blocks_touched : int;
  blocks_dropped : int;
  blocks_total : int;
  reencrypted_bytes : int;
  rows_removed : int;
  rows_added : int;
  catalogs_patched : int;
  index_entries_touched : int;
  fell_back : bool;
}

exception Delta_fallback of string

(* Apply one edit by re-encrypting only the touched blocks and patching
   the metadata in place, instead of re-hosting the whole document.
   The fallback ladder is explicit: whenever the incremental path
   cannot be both correct and secure (the remapped scheme no longer
   enforces the SCs, attribute/interval space exhausted, a surgery
   precondition fails), it degrades to [update] — the always-secure
   full re-host — and says so in the cost record.  The four phases are
   read off consecutive timestamps, so together they tile the call. *)
let apply_delta t edit =
  let keys = Client.keys t.client in
  let started = now_ms () in
  try
    let plan = Update.delta t.doc edit in
    let edited = plan.Update.edited in
    let roots' =
      List.filter_map
        (fun r ->
          let nr = plan.Update.new_of_old.(r) in
          if nr >= 0 then Some nr else None)
        t.scheme.Scheme.block_roots
    in
    let scheme' = { t.scheme with Scheme.block_roots = roots' } in
    (* The remapped scheme must still enforce every SC over the edited
       document — an insert of sensitive content outside all blocks is
       exactly what this catches. *)
    (match Scheme.enforces edited scheme' t.constraints with
     | Ok () -> ()
     | Error msg -> raise (Delta_fallback ("scheme no longer enforces SCs: " ^ msg)));
    (* Touched = blocks containing an edit site; dropped = blocks whose
       root vanished with a deleted subtree. *)
    let touched_tbl = Hashtbl.create 16 in
    let note n =
      match Encrypt.block_id_of_node t.db n with
      | Some id -> Hashtbl.replace touched_tbl id ()
      | None -> ()
    in
    List.iter note plan.Update.changed_values;
    List.iter note plan.Update.deleted_roots;
    List.iter
      (fun r ->
        match Doc.parent edited r with
        | Some p ->
          let old_p = plan.Update.old_of_new.(p) in
          if old_p >= 0 then note old_p
        | None -> ())
      plan.Update.inserted_roots;
    let dropped = ref [] in
    let survivors =
      List.filter_map
        (fun b ->
          let nr = plan.Update.new_of_old.(b.Encrypt.root) in
          if nr < 0 then begin
            dropped := (b.Encrypt.id, b.Encrypt.generation) :: !dropped;
            None
          end
          else Some (b, nr))
        t.db.Encrypt.blocks
    in
    let jobs =
      Array.of_list
        (List.filter (fun (b, _) -> Hashtbl.mem touched_tbl b.Encrypt.id) survivors)
    in
    let planned = now_ms () in
    let fresh = Encrypt.reencrypt_blocks ?pool:t.pool ~keys edited jobs in
    let reencrypted = now_ms () in
    let fresh_by_id = Hashtbl.create 16 in
    Array.iter (fun b -> Hashtbl.replace fresh_by_id b.Encrypt.id b) fresh;
    let blocks' =
      List.map
        (fun (b, nr) ->
          match Hashtbl.find_opt fresh_by_id b.Encrypt.id with
          | Some fresh_block -> fresh_block
          | None -> { b with Encrypt.root = nr })
        survivors
    in
    let db' = Encrypt.reassemble ~doc:edited ~scheme:scheme' ~blocks:blocks' in
    let reassembled = now_ms () in
    let metadata', stats =
      Metadata.patch ~keys ~policy:t.value_index t.metadata plan ~old_db:t.db
        ~new_db:db'
    in
    let patched = now_ms () in
    let client = Client.create ~keys metadata' db' in
    (* [tracer t], not [t.trace]: the accessor is the policy-declared
       safe projection of the handle (see lib/analysis/policy.ml). *)
    let server =
      Server.of_metadata ~trace:(tracer t) metadata' (Encrypt.server_blocks db')
    in
    let t' =
      { t with
        doc = edited;
        scheme = scheme';
        db = db';
        metadata = metadata';
        client;
        server;
        link = make_link keys server;
        generation = next_generation ();
        rehost_hooks = ref [];
        delta_hooks = ref [] }
    in
    let event =
      { touched_blocks =
          Array.to_list
            (Array.map
               (fun (b, _) ->
                 b.Encrypt.id, b.Encrypt.generation, b.Encrypt.generation + 1)
               jobs);
        dropped_blocks = List.rev !dropped;
        structural = plan.Update.structural }
    in
    Log.info (fun m ->
        m "delta: %s; %d/%d blocks re-encrypted, %d dropped, %d rows patched"
          (Update.describe edit) (Array.length jobs)
          (List.length t.db.Encrypt.blocks)
          (List.length !dropped)
          (stats.Metadata.rows_removed + stats.Metadata.rows_added));
    fire_delta t event;
    let finished = now_ms () in
    ( t',
      { plan_ms = planned -. started;
        reencrypt_ms = reencrypted -. planned;
        patch_ms = patched -. reassembled;
        rebuild_ms = (reassembled -. reencrypted) +. (finished -. patched);
        blocks_touched = Array.length jobs;
        blocks_dropped = List.length !dropped;
        blocks_total = List.length t.db.Encrypt.blocks;
        reencrypted_bytes =
          Array.fold_left
            (fun acc b -> acc + String.length b.Encrypt.ciphertext)
            0 fresh;
        rows_removed = stats.Metadata.rows_removed;
        rows_added = stats.Metadata.rows_added;
        catalogs_patched = stats.Metadata.catalogs_patched;
        index_entries_touched =
          stats.Metadata.index_entries_removed
          + stats.Metadata.index_entries_added;
        fell_back = false } )
  with
  | Delta_fallback reason
  | Metadata.Patch_impossible reason
  (* Interval precision exhausted mid-patch falls back too: a fresh
     assignment (which renumbers everything) can absorb layouts the
     incremental gaps cannot.  A genuinely invalid edit also lands
     here, and [update] re-raises the identical [Invalid_argument]
     before doing any work, so errors still propagate. *)
  | Invalid_argument reason ->
    Log.info (fun m -> m "delta update re-hosting instead: %s" reason);
    let planned = now_ms () in
    let t', setup_cost = update t edit in
    let rehost_ms = now_ms () -. planned in
    ( t',
      { plan_ms = planned -. started;
        reencrypt_ms = setup_cost.encrypt_ms;
        patch_ms = setup_cost.metadata_ms;
        rebuild_ms =
          Float.max 0.0 (rehost_ms -. setup_cost.encrypt_ms -. setup_cost.metadata_ms);
        blocks_touched = setup_cost.block_count;
        blocks_dropped = 0;
        blocks_total = setup_cost.block_count;
        reencrypted_bytes = Encrypt.encrypted_bytes (db t');
        rows_removed = 0;
        rows_added = 0;
        catalogs_patched = 0;
        index_entries_touched = 0;
        fell_back = true } )

let apply_deltas t edits =
  let t, costs =
    List.fold_left
      (fun (t, costs) edit ->
        let t', cost = apply_delta t edit in
        t', cost :: costs)
      (t, []) edits
  in
  t, List.rev costs
