(* Correctness checks, made apart from the encrypted path.

   The expected answers of a query come from evaluating it directly on
   the plaintext document with [Xpath.Eval] — no DSI interval, OPESS
   ciphertext or block is involved.  The properties checked beside the
   answers are the ones the method promises: non-empty generated
   queries, shipped blocks covering every block that holds an answer
   (§6.2), value read-back after [Set_value], exact tag-count changes
   after inserts and deletes, and clean rounds on the perfect
   loopback. *)

module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

let reference doc query = List.map (Doc.subtree doc) (Xpath.Eval.eval doc query)

(* Expected answers are kept as one digest of each serialized answer
   subtree, so a table of them holds no document copy. *)
let digests trees = List.map (fun t -> Digest.string (Xmlcore.Printer.tree_to_string t)) trees

let answers ~expected ~got =
  let got = digests got in
  let ne = List.length expected and ng = List.length got in
  if ng < ne then Error (Printf.sprintf "dropped answer: %d of %d returned" ng ne)
  else if ng > ne then Error (Printf.sprintf "extra answer: %d returned, %d expected" ng ne)
  else begin
    let rec first_diff i = function
      | e :: es, g :: gs -> if Digest.equal e g then first_diff (i + 1) (es, gs) else Some i
      | _ -> None
    in
    match first_diff 0 (expected, got) with
    | None -> Ok ()
    | Some i -> Error (Printf.sprintf "wrong answer at position %d" i)
  end

(* Blocks that hold part of an answer: the block of every node in an
   answer subtree, on the client's plaintext copy and block table. *)
let answer_blocks db doc query =
  let ids = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          match Secure.Encrypt.block_id_of_node db d with
          | Some id -> Hashtbl.replace ids id ()
          | None -> ())
        (Doc.descendant_or_self doc n))
    (Xpath.Eval.eval doc query);
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys ids))

let superset ~shipped ~needed =
  match List.filter (fun id -> not (List.mem id shipped)) needed with
  | [] -> Ok ()
  | id :: _ as missing ->
    Error
      (Printf.sprintf "shipped blocks miss %d answer block(s), e.g. block %d"
         (List.length missing) id)

let nonempty query = function
  | [] -> Error ("generated query has no answer: " ^ Xpath.Ast.to_string query)
  | _ :: _ -> Ok ()

let occurrences ~tag ~value trees =
  List.fold_left
    (fun acc t ->
      acc + List.length (List.filter (fun (k, v) -> k = tag && v = value) (Tree.leaf_values t)))
    0 trees

(* After [Set_value (path, value)], the read-back shows [value] once
   more for every bound leaf that did not already hold it. *)
let reads_back ~tag ~value ~before ~bound got =
  let already = List.length (List.filter (String.equal value) bound) in
  let expected = occurrences ~tag ~value before - already + List.length bound in
  let n = occurrences ~tag ~value got in
  if n = expected then Ok ()
  else
    Error
      (Printf.sprintf "read-back shows the value set on %s %d time(s), expected %d" tag n expected)

let count_changed ~before ~delta ~got =
  let n = List.length got in
  if n = before + delta then Ok ()
  else Error (Printf.sprintf "count after edit is %d, expected %d%+d" n before delta)

let clean_round (cost : Secure.System.cost) =
  if cost.Secure.System.degraded then Error "round degraded to the naive fallback"
  else if cost.Secure.System.attempts <> 1 then
    Error (Printf.sprintf "round took %d transport attempts" cost.Secure.System.attempts)
  else Ok ()

let all results = List.fold_left (fun acc r -> match acc with Ok () -> r | Error _ -> acc) (Ok ()) results

(* Show that the checker catches what it must: feed it a correct
   round with one answer dropped, one value changed and one answer
   block removed from the shipment, on a small hosted document. *)
let self_test () =
  let doc = Workload.Health.generate ~seed:1L ~patients:12 () in
  let sys, _ =
    Secure.System.setup ~master:"perfbench" doc (Workload.Health.constraints ()) Secure.Scheme.Opt
  in
  let query = Xpath.Parser.parse "//patient[age>=20]/treat" in
  let got, _ = Secure.System.evaluate sys query in
  let expected = digests (reference doc query) in
  let client = Secure.System.client sys in
  let response = Secure.Server.answer (Secure.System.server sys) (Secure.Client.translate client query) in
  let shipped = List.map (fun b -> b.Secure.Encrypt.id) response.Secure.Server.blocks in
  let needed = answer_blocks (Secure.System.db sys) doc query in
  let rec change_value = function
    | Tree.Text v -> Tree.Text (v ^ "x")
    | Tree.Element (tag, children) ->
      (match children with
       | [] -> Tree.Element (tag, [ Tree.Text "x" ])
       | c :: rest -> Tree.Element (tag, change_value c :: rest))
  in
  let caught name = function
    | Error _ -> Ok ()
    | Ok () -> Error ("checker missed a " ^ name)
  in
  all
    [ answers ~expected ~got;
      superset ~shipped ~needed;
      (if needed = [] then Error "self-test query holds no encrypted block" else Ok ());
      caught "dropped answer" (answers ~expected ~got:(List.tl got));
      caught "wrong value"
        (answers ~expected ~got:(change_value (List.hd got) :: List.tl got));
      caught "shipment missing an answer block"
        (superset ~shipped:(List.filter (fun id -> id <> List.hd needed) shipped) ~needed) ]
