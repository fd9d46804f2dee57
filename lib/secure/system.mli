(** End-to-end hosted database system — Figure 1's architecture in one
    process, with per-phase cost accounting.

    {!setup} plays the data owner uploading to the service provider:
    build the scheme for the SCs, encrypt, build metadata, hand the
    server its view.  {!evaluate} runs one round trip of the protocol
    and times each phase separately (the quantities of Section 7.2):
    client translation, server evaluation, transmission (modelled by
    byte counts at a configurable link speed), client decryption and
    client post-processing.

    {!naive_evaluate} is the Section 7.3 baseline: the server ships
    every block, the client decrypts everything and evaluates
    locally. *)

type t

type cost = {
  translate_ms : float;
  server_ms : float;
  transmit_bytes : int;
  transmit_ms : float;     (** [transmit_bytes] at {!link_bytes_per_ms} *)
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  answer_count : int;
  attempts : int;
      (** session-layer transport attempts this query cost (1 = clean) *)
  retransmitted_bytes : int;
      (** frame bytes re-sent by retries (robustness overhead) *)
  faults_absorbed : int;
      (** transport faults survived by the session layer *)
  replays : int;
      (** replay-cache hits the endpoint saw this query — retransmitted
          frames the server linked with certainty *)
  degraded : bool;
      (** the metadata path gave up and the naive fallback answered *)
}

val total_ms : cost -> float

val link_bytes_per_ms : float
(** Modelled link speed: 100 Mbps, as in the paper's testbed. *)

type setup_cost = {
  scheme_build_ms : float;
  encrypt_ms : float;
  metadata_ms : float;
  scheme_size_nodes : int;    (** Definition 4.1 size *)
  block_count : int;
  server_data_bytes : int;    (** skeleton + ciphertexts + headers *)
  metadata_bytes : int;
}

val setup :
  ?master:string ->
  ?cipher:Crypto.Cipher.suite ->
  ?value_index:Metadata.index_policy ->
  ?pool:Parallel.Pool.t ->
  Xmlcore.Doc.t -> Sc.t list -> Scheme.kind -> t * setup_cost
(** When [pool] is given, block encryption and OPESS catalog building
    fan out across its domains during hosting, and the system keeps the
    pool for candidate-block decryption and {!evaluate_batch}.  All
    outputs — ciphertexts, metadata, answers — are byte-identical to a
    pool-less setup; systems derived by {!update} / {!rotate} inherit
    the pool.
    @raise Invalid_argument when the scheme cannot enforce the SCs
    (should not happen for the four built-in kinds). *)

val restore :
  master:string -> ?cipher:Crypto.Cipher.suite ->
  ?value_index:Metadata.index_policy -> ?pool:Parallel.Pool.t ->
  doc:Xmlcore.Doc.t ->
  constraints:Sc.t list -> scheme:Scheme.t -> db:Encrypt.db ->
  metadata:Metadata.t -> unit -> t
(** Rebuild a live system from persisted parts without re-running
    scheme construction, encryption or metadata building (see
    {!Persist}). *)

val doc : t -> Xmlcore.Doc.t

val master : t -> string
(** The owner's master secret (client side only — needed by {!Persist}
    to authenticate saved bundles). *)

val cipher : t -> Crypto.Cipher.suite
(** The block-cipher suite the system was hosted under. *)

val constraints : t -> Sc.t list
val scheme : t -> Scheme.t
val db : t -> Encrypt.db
val metadata : t -> Metadata.t
val client : t -> Client.t
val server : t -> Server.t

val pool : t -> Parallel.Pool.t option
(** The domain pool this system parallelises over, if any. *)

val generation : t -> int
(** Monotone hosting counter: every {!setup} / {!restore} result gets a
    fresh generation.  Anything derived from a system's ciphertext
    artifacts (cached plans, memoised candidates, decrypted blocks) is
    valid for exactly one generation. *)

val on_rehost : t -> (unit -> unit) -> unit
(** Register an invalidation hook on this hosting.  All hooks fire
    (once, then are dropped) when the system is superseded by
    {!update}, {!update_all} or {!rotate} — the moment every derived
    ciphertext artifact becomes stale.  {!with_faults} shares the hook
    list of the system it rewires. *)

type delta_event = {
  touched_blocks : (int * int * int) list;
      (** (block id, old generation, new generation) for every block
          re-encrypted by a delta *)
  dropped_blocks : (int * int) list;
      (** (block id, old generation) for blocks removed outright *)
  structural : bool;
      (** node ids shifted (insert/delete) — value-position artifacts
          like memoised query results must be revalidated even for
          untouched blocks *)
}
(** Block-level changelist of one {!apply_delta}: the granularity at
    which derived artifacts (decrypted-block caches) can be invalidated
    selectively instead of wholesale. *)

val on_delta : t -> (delta_event -> unit) -> unit
(** Register a delta hook.  Hooks fire (once, then are dropped) when
    the system is superseded by {!apply_delta} — carrying the
    changelist, so observers keep artifacts derived from untouched
    blocks.  A full re-host ({!update}/{!rotate}) fires the
    {!on_rehost} hooks instead, never these. *)

(** {2 Transport faults and the session layer}

    Every {!evaluate} round trip is framed by {!Session} (sequence
    numbers + HMAC trailer) and crosses a {!Transport}.  A freshly
    {!setup} or {!restore}d system uses a perfect loopback; rewire it
    with {!with_faults} to exercise the retry and degradation
    machinery under a deterministic chaos schedule. *)

val with_faults :
  ?session:Session.config -> profile:Transport.profile -> seed:int64 -> t -> t
(** [with_faults ~profile ~seed t] shares [t]'s server state but
    routes the wire path through {!Transport.faulty}.  Systems derived
    by {!update} / {!rotate} revert to the perfect loopback. *)

val reset_link :
  ?session:Session.config -> ?faults:Transport.profile * int64 -> t -> t
(** Tear the current link down and re-establish it: the old session is
    {!Session.close}d (it refuses further calls with [Error Closed]),
    and the returned system carries a fresh session {e and} a fresh
    endpoint, so the replay cache of the previous incarnation cannot
    leak across — a retransmit of a pre-reset frame is a fresh request
    to the new endpoint, never a replay hit.  [faults] rewires the new
    link through {!Transport.faulty}; omitting it yields a perfect
    loopback (how a tripped tenant repairs itself).  Server state,
    ledger, tracer and rehost hooks are shared with [t]. *)

val session_stats : t -> Session.stats
val transport_stats : t -> Transport.stats
val endpoint_stats : t -> Session.endpoint_stats

(** {2 Observability}

    Each hosted system carries a tracer (shared with its server, so
    [server.*] spans nest inside [system.*] ones) and a leakage ledger
    recording per-round server-visible facts.  Both start disabled and
    cost one boolean test per instrumentation point; enable them with
    [Obs.Trace.set_enabled] / [Obs.Ledger.set_enabled].  The pooled
    {!evaluate_batch} path records ledger rounds after the
    deterministic merge (label ["batch"]) and never traces from pool
    workers; {!with_faults} shares both with the system it rewires.
    See docs/OBSERVABILITY.md. *)

val tracer : t -> Obs.Trace.t
val ledger : t -> Obs.Ledger.t

val evaluate : t -> Xpath.Ast.path -> Xmlcore.Tree.t list * cost
(** Full protocol round trip.  Total under any fault schedule the
    session layer can survive: retries absorb transient faults, and
    once the configured attempts are exhausted the query {e degrades}
    to {!naive_evaluate} semantics evaluated against the server state
    directly ([cost.degraded = true]) — answers stay exact
    ([Q(δ(Qs(η(D)))) = Q(D)]) either way. *)

val try_evaluate :
  t -> Xpath.Ast.path -> (Xmlcore.Tree.t list * cost, Session.error) result
(** Strict variant: no degradation ladder.  [Error (Gave_up _)] after
    the session layer exhausts its attempts; never raises on transport
    faults. *)

val try_evaluate_padded :
  t -> extra:int list ->
  Xpath.Ast.path -> (Xmlcore.Tree.t list * cost, Session.error) result
(** {!try_evaluate} through the {!Protocol.Padded} wire variant: the
    server widens the shipment with the pad blocks [extra] (unknown and
    already-shipped ids are skipped), keeping it a superset of the
    honest answer, so answers are byte-identical to the unpadded round
    while the traffic shape moves toward the padding envelope.  Ledger
    rounds are labelled ["padded"].  Used by the {!Mitigate} layer
    ([lib/attack]). *)

val fetch_blocks : t -> int list -> (cost, Session.error) result
(** Cover traffic through the {!Protocol.Fetch} wire variant: the
    requested blocks cross the wire and are discarded undecrypted
    (no answers, no decryption cost).  Ledger rounds are labelled
    ["fetch"]. *)

val evaluate_batch : t -> Xpath.Ast.path array -> (Xmlcore.Tree.t list * cost) array
(** Evaluate independent queries of a workload, fanning them across
    the system's pool against the shared read-only server (one private
    session lane per query).  Result [i] — answers, protocol bytes,
    blocks returned — is exactly what [evaluate t queries.(i)] returns;
    only wall-clock changes.  Without a pool (or behind a
    {!with_faults} link, whose deterministic fault schedule is
    per-session) the queries run sequentially. *)

val evaluate_union : t -> Xpath.Ast.path list -> Xmlcore.Tree.t list * cost
(** Union query ([p1 | p2 | ...], cf. {!Xpath.Parser.parse_union}): one
    server exchange per branch, a single combined decryption and a
    node-deduplicated union evaluation.  The branches make one ledger
    round (label ["union"]) whose shipment is the id-ordered union of
    the branches' blocks. *)

val try_evaluate_union :
  t -> Xpath.Ast.path list -> (Xmlcore.Tree.t list * cost, Session.error) result
(** Strict union evaluation (first failing branch aborts). *)

val reference_union : t -> Xpath.Ast.path list -> Xmlcore.Tree.t list

val naive_evaluate : t -> Xpath.Ast.path -> Xmlcore.Tree.t list * cost
(** Ship-everything baseline; also the degradation fallback.  Reads the
    server state directly (no metadata round trip), so it succeeds
    regardless of the fault schedule.  The MIN/MAX fast path of
    {!aggregate} likewise bypasses the transport (its extreme-entry
    exchange has no wire encoding yet). *)

val reference : t -> Xpath.Ast.path -> Xmlcore.Tree.t list
(** Ground truth: the query evaluated directly on the plaintext
    document (what [Q(D)] returns). *)

(** {2 Aggregates (Section 6.4)}

    MIN and MAX evaluate {e without decrypting the candidate set}: OPE
    order in the value index locates the extreme encrypted occurrence,
    so at most one block ships.  COUNT cannot be pushed to the server —
    splitting and scaling distort index entry counts — so it decrypts
    like an ordinary query (exactly the paper's trade-off). *)

val aggregate : t -> [ `Min | `Max ] -> Xpath.Ast.path -> string option * cost
(** [aggregate t `Max q] is the largest leaf value among [q]'s answers
    ([None] when the query selects nothing).  Numeric comparison is
    used when values parse as numbers. *)

val count : t -> Xpath.Ast.path -> int * cost
(** Number of answers; pays full decryption like {!evaluate}. *)

val reference_aggregate : t -> [ `Min | `Max ] -> Xpath.Ast.path -> string option
(** Ground-truth aggregate on the plaintext document. *)

(** {2 Updates (the paper's future-work item 3)}

    The re-host strategy: apply the edit to the owner's plaintext,
    then rebuild scheme, blocks and metadata under the same master key
    and constraints.  Always secure — enforcement is re-checked — at
    full setup cost; {!Dsi.Assign.interval_in_gap} is the primitive an
    incremental protocol would use instead. *)

val update : t -> Update.edit -> t * setup_cost
(** Apply one edit and re-host.
    @raise Invalid_argument on impossible edits (see {!Update.apply})
    or if the edited document no longer satisfies setup's checks. *)

val update_all : t -> Update.edit list -> t * setup_cost

val rotate : t -> new_master:string -> t * setup_cost
(** Re-host under a fresh master secret: every derived key, pad, OPE
    mapping and DSI weight changes; bundles persisted under the old
    master no longer authenticate. *)

(** {2 Incremental delta updates}

    {!apply_delta} makes update cost proportional to the delta instead
    of the database: only blocks containing an edit site are
    re-encrypted (each under a bumped per-block generation, so nonces
    never repeat), the DSI interval tables and OPESS catalogs are
    patched in place, and untouched ciphertexts, table rows and index
    namespaces survive verbatim.  Security is preserved by an explicit
    fallback ladder: whenever the incremental path cannot be both
    correct and secure (the remapped scheme stops enforcing an SC,
    attribute or interval space runs out), the edit is applied by the
    always-secure full re-host instead. *)

type delta_cost = {
  plan_ms : float;
      (** edit planning, correspondence walk, SC re-check and the
          touched-block set *)
  reencrypt_ms : float;          (** touched-block re-encryption *)
  patch_ms : float;              (** metadata surgery *)
  rebuild_ms : float;
      (** db reassembly, client/server/link rebuild and the delta hooks;
          on a fallback, the re-host beyond its encryption and metadata.
          The four phases tile the {!apply_delta} call. *)
  blocks_touched : int;          (** blocks re-encrypted *)
  blocks_dropped : int;          (** blocks removed with deleted subtrees *)
  blocks_total : int;            (** blocks before the edit *)
  reencrypted_bytes : int;       (** ciphertext bytes re-produced *)
  rows_removed : int;            (** DSI table rows recomputed away *)
  rows_added : int;              (** DSI table rows added back *)
  catalogs_patched : int;        (** OPESS catalogs examined/rebuilt *)
  index_entries_touched : int;   (** B-tree entries deleted + inserted *)
  fell_back : bool;              (** the edit went through a full re-host *)
}

val apply_delta : t -> Update.edit -> t * delta_cost
(** Apply one edit incrementally.  Answers over the result are exactly
    those of a fresh {!setup} of the edited document (pinned by the
    differential suite); server-visible artifacts differ only in the
    touched blocks.  Fires the {!on_delta} hooks with the block
    changelist (or, when falling back, the {!on_rehost} hooks via
    {!update}).  The superseded system's metadata shares its B-tree
    with the result and must not be queried afterwards.
    @raise Invalid_argument on impossible edits (see {!Update.apply}). *)

val apply_deltas : t -> Update.edit list -> t * delta_cost list
(** Fold {!apply_delta} over a batch, left to right. *)
