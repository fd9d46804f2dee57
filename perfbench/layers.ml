(* The traced run's compositions: the same public layer calls the
   program makes inside [System.setup], [System.evaluate] and
   [System.apply_delta], made one by one from the benchmark under a
   span each. *)

module S = Secure.System
module Doc = Xmlcore.Doc

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)

let ope_calls = 200

(* Scheme build, encryption, metadata, client and server creation as
   [System.setup] runs them, plus beside them the DSI assignment and
   the OPESS catalogs [Metadata.build] makes internally, and single
   [Ope.encrypt] calls. *)
let setup tr doc scs =
  let span name f = Spans.span tr name f in
  Spans.next_op tr;
  let keys = Crypto.Keys.create ~master:Work.master () in
  let scheme = span "scheme.build" (fun () -> Secure.Scheme.build doc scs Secure.Scheme.Opt) in
  let db = span "encrypt.encrypt" (fun () -> Secure.Encrypt.encrypt ~keys doc scheme) in
  let metadata = span "metadata.build" (fun () -> Secure.Metadata.build ~keys db) in
  ignore (span "client.create" (fun () -> Secure.Client.create ~keys metadata db));
  ignore
    (span "server.create" (fun () ->
         Secure.Server.of_metadata metadata (Secure.Encrypt.server_blocks db)));
  Spans.next_op tr;
  ignore
    (span "dsi.assign" (fun () ->
         Dsi.Assign.assign ~key:(Crypto.Keys.dsi_key keys) db.Secure.Encrypt.doc));
  List.iteri
    (fun attr_id tag ->
      let key = Crypto.Keys.opess_key keys ~attribute:tag in
      let histogram = Xmlcore.Stats.value_histogram db.Secure.Encrypt.doc ~tag in
      ignore (span "opess.build" (fun () -> Secure.Opess.build ~key ~attr_id ~tag histogram)))
    (Xmlcore.Stats.leaf_tags db.Secure.Encrypt.doc);
  Spans.next_op tr;
  let ope = Crypto.Ope.create ~key:(Crypto.Sha256.digest "perfbench-ope") ~domain_bits:40 in
  let st = Random.State.make [| 17 |] in
  for _ = 1 to ope_calls do
    let x = Random.State.int64 st (Crypto.Ope.domain_max ope) in
    ignore (span "ope.encrypt" (fun () -> Crypto.Ope.encrypt ope x))
  done;
  Secure.Metadata.btree_entry_count metadata

(* ------------------------------------------------------------------ *)
(* Query                                                               *)

(* Every value constraint's B-tree key ranges, nested paths included. *)
let rec path_ranges (p : Secure.Squery.path) =
  List.concat_map
    (fun (s : Secure.Squery.step) -> List.concat_map predicate_ranges s.Secure.Squery.predicates)
    p.Secure.Squery.steps

and predicate_ranges = function
  | Secure.Squery.Exists p -> path_ranges p
  | Secure.Squery.Value (p, Secure.Squery.Ranges r) -> r :: path_ranges p
  | Secure.Squery.Value (p, Secure.Squery.Unknown) -> path_ranges p
  | Secure.Squery.P_and (a, b) | Secure.Squery.P_or (a, b) -> predicate_ranges a @ predicate_ranges b
  | Secure.Squery.P_not a -> predicate_ranges a

type composed = {
  answers : Secure.Client.answer list;
  wire_bytes : int;
  response : Secure.Server.response;
}

let seq = ref 0L

(* translate -> codec -> session frame -> Server.answer -> codec ->
   session frame -> decrypt -> post-process, as [System.evaluate] runs
   them over the perfect loopback.  [Server.explain] (the pruning
   phase of [answer]) and [Server.btree_targets] are timed beside. *)
let query tr sys q =
  let span name f = Spans.span tr name f in
  let client = S.client sys and server = S.server sys in
  let mac_key = Crypto.Keys.derive (Secure.Client.keys client) "session-mac" in
  seq := Int64.succ !seq;
  let unframe ~expect frame =
    match Secure.Session.decode_frame ~mac_key ~expect ~expect_seq:!seq frame with
    | Ok (_, payload) -> payload
    | Error e -> failwith ("session frame: " ^ Secure.Session.error_to_string e)
  in
  let squery = span "client.translate" (fun () -> Secure.Client.translate client q) in
  let request = span "protocol.codec" (fun () -> Secure.Protocol.encode_request squery) in
  let frame =
    span "session.frame" (fun () ->
        Secure.Session.encode_frame ~mac_key ~kind:Secure.Session.Request ~seq:!seq request)
  in
  let received = span "session.frame" (fun () -> unframe ~expect:Secure.Session.Request frame) in
  let squery' = span "protocol.codec" (fun () -> Secure.Protocol.decode_request received) in
  let response = span "server.answer" (fun () -> Secure.Server.answer server squery') in
  ignore (span "server.prune" (fun () -> Secure.Server.explain server squery'));
  List.iter
    (fun ranges -> ignore (span "server.btree" (fun () -> Secure.Server.btree_targets server ranges)))
    (path_ranges squery');
  let payload = span "protocol.codec" (fun () -> Secure.Protocol.encode_response response) in
  let frame =
    span "session.frame" (fun () ->
        Secure.Session.encode_frame ~mac_key ~kind:Secure.Session.Response ~seq:!seq payload)
  in
  let payload' = span "session.frame" (fun () -> unframe ~expect:Secure.Session.Response frame) in
  let response' = span "protocol.codec" (fun () -> Secure.Protocol.decode_response payload') in
  let decrypted =
    span "client.decrypt" (fun () ->
        List.map
          (fun b -> b.Secure.Encrypt.id, Secure.Client.decrypt_block client b)
          response'.Secure.Server.blocks)
  in
  let answers =
    span "client.postprocess" (fun () -> Secure.Client.evaluate_with client ~decrypted q)
  in
  { answers;
    wire_bytes = String.length request + response'.Secure.Server.bytes;
    response = response' }

(* ------------------------------------------------------------------ *)
(* Update                                                              *)

(* The steps [System.apply_delta] takes before its metadata patch —
   planning, the enforcement re-check, touched-block re-encryption and
   reassembly — on the same inputs, beside the real call.  The patch
   itself mutates the live B-tree, so it is read from the call's own
   [delta_cost.patch_ms] instead.  Returns whether the incremental path
   got past the enforcement check. *)
let update_beside tr sys edit =
  let span name f = Spans.span tr name f in
  let doc = S.doc sys and scheme = S.scheme sys and db = S.db sys in
  let keys = Secure.Client.keys (S.client sys) in
  let plan = span "update.delta" (fun () -> Secure.Update.delta doc edit) in
  let edited = plan.Secure.Update.edited in
  let roots' =
    List.filter_map
      (fun r ->
        let nr = plan.Secure.Update.new_of_old.(r) in
        if nr >= 0 then Some nr else None)
      scheme.Secure.Scheme.block_roots
  in
  let scheme' = { scheme with Secure.Scheme.block_roots = roots' } in
  match
    span "scheme.enforces" (fun () -> Secure.Scheme.enforces edited scheme' (S.constraints sys))
  with
  | Error _ -> false
  | Ok () ->
    let touched = Hashtbl.create 16 in
    let note n =
      match Secure.Encrypt.block_id_of_node db n with
      | Some id -> Hashtbl.replace touched id ()
      | None -> ()
    in
    List.iter note plan.Secure.Update.changed_values;
    List.iter note plan.Secure.Update.deleted_roots;
    List.iter
      (fun r ->
        match Doc.parent edited r with
        | Some p ->
          let old_p = plan.Secure.Update.old_of_new.(p) in
          if old_p >= 0 then note old_p
        | None -> ())
      plan.Secure.Update.inserted_roots;
    let survivors =
      List.filter_map
        (fun b ->
          let nr = plan.Secure.Update.new_of_old.(b.Secure.Encrypt.root) in
          if nr < 0 then None else Some (b, nr))
        db.Secure.Encrypt.blocks
    in
    let jobs =
      Array.of_list
        (List.filter (fun (b, _) -> Hashtbl.mem touched b.Secure.Encrypt.id) survivors)
    in
    let fresh =
      span "encrypt.reencrypt" (fun () -> Secure.Encrypt.reencrypt_blocks ~keys edited jobs)
    in
    let fresh_by_id = Hashtbl.create 16 in
    Array.iter (fun b -> Hashtbl.replace fresh_by_id b.Secure.Encrypt.id b) fresh;
    let blocks' =
      List.map
        (fun (b, nr) ->
          match Hashtbl.find_opt fresh_by_id b.Secure.Encrypt.id with
          | Some f -> f
          | None -> { b with Secure.Encrypt.root = nr })
        survivors
    in
    ignore
      (span "encrypt.reassemble" (fun () ->
           Secure.Encrypt.reassemble ~doc:edited ~scheme:scheme' ~blocks:blocks'));
    true
