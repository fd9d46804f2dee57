(* XML substrate tests: tree ops, indexing, parser, printer, stats. *)

module Tree = Xmlcore.Tree
module Doc = Xmlcore.Doc

let sample () = Workload.Health.tree ()

(* --- Tree ------------------------------------------------------- *)

let tree_basics () =
  let t = Tree.element "a" [ Tree.leaf "b" "1"; Tree.attribute "x" "2" ] in
  Alcotest.(check (option string)) "tag" (Some "a") (Tree.tag t);
  Alcotest.(check int) "depth" 2 (Tree.depth t);
  Alcotest.(check bool) "attr tag" true (Tree.is_attribute_tag "@x");
  Alcotest.(check bool) "normal tag" false (Tree.is_attribute_tag "x");
  Alcotest.(check (list (pair string string))) "leaf values"
    [ "b", "1"; "@x", "2" ] (Tree.leaf_values t);
  Alcotest.(check bool) "equal self" true (Tree.equal t t);
  Alcotest.(check bool) "not equal" false (Tree.equal t (Tree.leaf "a" "1"))

(* --- Doc -------------------------------------------------------- *)

let doc_indexing () =
  let doc = Doc.of_tree (sample ()) in
  Alcotest.(check string) "root tag" "hospital" (Doc.tag doc (Doc.root doc));
  Alcotest.(check int) "two patients" 2
    (List.length (Doc.nodes_with_tag doc "patient"));
  (* Preorder: descendants of a node form a contiguous range. *)
  List.iter
    (fun p ->
      let ds = Doc.descendants doc p in
      List.iteri (fun i d -> Alcotest.(check int) "contiguous" (p + 1 + i) d) ds;
      List.iter
        (fun d -> Alcotest.(check bool) "ancestor" true (Doc.is_ancestor doc p d))
        ds)
    (Doc.nodes_with_tag doc "patient");
  Alcotest.(check bool) "root not its own ancestor" false
    (Doc.is_ancestor doc 0 0);
  Alcotest.(check int) "height" 3 (Doc.height doc)

let doc_roundtrip_prop =
  QCheck.Test.make ~name:"of_tree then to_tree = id" ~count:100
    Helpers.arbitrary_doc
    (fun doc -> Tree.equal (Doc.to_tree doc) (Doc.to_tree doc))

let doc_parent_child_inverse =
  QCheck.Test.make ~name:"parent of child = self" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      Doc.fold doc
        (fun ok n ->
          ok
          && List.for_all (fun c -> Doc.parent doc c = Some n) (Doc.children doc n))
        true)

let doc_subtree_sizes =
  QCheck.Test.make ~name:"subtree sizes consistent" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      Doc.fold doc
        (fun ok n ->
          ok
          && Doc.subtree_node_count doc n
             = 1
               + List.fold_left
                   (fun acc c -> acc + Doc.subtree_node_count doc c)
                   0 (Doc.children doc n))
        true)

let doc_rejects_mixed () =
  Alcotest.check_raises "mixed content"
    (Invalid_argument "Doc.of_tree: mixed content (text beside elements)")
    (fun () ->
      ignore (Doc.of_tree (Tree.Element ("a", [ Tree.Text "x"; Tree.element "b" [] ]))))

(* --- Parser / Printer ------------------------------------------- *)

let parse s = Xmlcore.Parser.parse s

let parser_basics () =
  let t = parse "<a><b>hi</b><c/></a>" in
  Alcotest.(check (option string)) "root" (Some "a") (Tree.tag t);
  let t = parse {|<a k="v" n='2'><b>x</b></a>|} in
  (match t with
   | Tree.Element ("a", [ attr1; attr2; _b ]) ->
     Alcotest.(check bool) "attr order" true
       (Tree.equal attr1 (Tree.attribute "k" "v")
        && Tree.equal attr2 (Tree.attribute "n" "2"))
   | _ -> Alcotest.fail "unexpected shape")

let parser_entities () =
  (match parse "<a>x &amp; y &lt;z&gt; &quot;q&quot; &#65;&#x42;</a>" with
   | Tree.Element ("a", [ Tree.Text v ]) ->
     Alcotest.(check string) "decoded" "x & y <z> \"q\" AB" v
   | _ -> Alcotest.fail "unexpected shape")

let parser_cdata_comments () =
  (match parse "<a><!-- note --><![CDATA[1 < 2 & 3]]></a>" with
   | Tree.Element ("a", [ Tree.Text v ]) ->
     Alcotest.(check string) "cdata" "1 < 2 & 3" v
   | _ -> Alcotest.fail "unexpected shape");
  let t = parse "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>" in
  Alcotest.(check (option string)) "prolog skipped" (Some "a") (Tree.tag t)

let parser_whitespace () =
  (match parse "<a>\n  <b>x</b>\n  <c>y</c>\n</a>" with
   | Tree.Element ("a", [ _; _ ]) -> ()
   | _ -> Alcotest.fail "insignificant whitespace should vanish")

(* Fuzzing: arbitrary bytes must either parse or raise Parse_error —
   never crash with anything else. *)
let parser_fuzz_total =
  QCheck.Test.make ~name:"parser is total (Parse_error or success)" ~count:2000
    QCheck.string
    (fun s ->
      match Xmlcore.Parser.parse s with
      | _ -> true
      | exception Xmlcore.Parser.Parse_error _ -> true)

(* Mutation fuzzing: valid documents with random single-byte edits. *)
let parser_fuzz_mutations =
  QCheck.Test.make ~name:"mutated valid XML never crashes the parser" ~count:500
    QCheck.(pair Helpers.arbitrary_doc (pair small_nat (int_bound 255)))
    (fun (doc, (pos, byte)) ->
      let s = Xmlcore.Printer.doc_to_string doc in
      let b = Bytes.of_string s in
      if Bytes.length b = 0 then true
      else begin
        Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        match Xmlcore.Parser.parse (Bytes.to_string b) with
        | _ -> true
        | exception Xmlcore.Parser.Parse_error _ -> true
        (* Mixed-content documents can surface as Invalid_argument from
           Doc-level checks only; the parser itself must not raise it. *)
      end)

let parser_errors () =
  let fails s =
    match parse s with
    | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | exception Xmlcore.Parser.Parse_error _ -> ()
  in
  fails "<a><b></a></b>";
  fails "<a>";
  fails "no markup";
  fails "<a></a><b></b>";
  fails "<a>text<b/></a>" (* mixed content *)

let printer_escaping () =
  let t = Tree.element "a" [ Tree.attribute "k" "x\"<>&"; Tree.leaf "b" "1<2&3" ] in
  let s = Xmlcore.Printer.tree_to_string t in
  Alcotest.(check string) "escaped"
    "<a k=\"x&quot;&lt;&gt;&amp;\"><b>1&lt;2&amp;3</b></a>" s;
  Alcotest.(check bool) "reparses" true (Tree.equal t (parse s))

let roundtrip_prop =
  QCheck.Test.make ~name:"parse after print = id" ~count:200
    Helpers.arbitrary_doc
    (fun doc ->
      let t = Doc.to_tree doc in
      Tree.equal t (parse (Xmlcore.Printer.tree_to_string t)))

let roundtrip_indented_prop =
  QCheck.Test.make ~name:"parse after indented print = id" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      let t = Doc.to_tree doc in
      Tree.equal t (parse (Xmlcore.Printer.tree_to_string ~indent:true t)))

let serialized_size_agrees =
  QCheck.Test.make ~name:"serialized_size = length of output" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      let t = Doc.to_tree doc in
      Xmlcore.Printer.serialized_size t
      = String.length (Xmlcore.Printer.tree_to_string t))

(* --- Stats ------------------------------------------------------- *)

let stats_histogram () =
  let doc = Doc.of_tree (sample ()) in
  let h = Xmlcore.Stats.value_histogram doc ~tag:"disease" in
  Alcotest.(check int) "diarrhea count" 2 (List.assoc "diarrhea" h);
  Alcotest.(check int) "leukemia count" 1 (List.assoc "leukemia" h);
  Alcotest.(check int) "total" 4 (Xmlcore.Stats.total_count h);
  Alcotest.(check int) "distinct" 3 (Xmlcore.Stats.distinct_count h)

let stats_census () =
  let doc = Doc.of_tree (sample ()) in
  let census = Xmlcore.Stats.tag_census doc in
  Alcotest.(check int) "patients" 2 (List.assoc "patient" census);
  Alcotest.(check int) "insurance" 3 (List.assoc "insurance" census);
  Alcotest.(check int) "policy#" 4 (List.assoc "policy#" census)

let stats_flatness () =
  Alcotest.(check (float 1e-9)) "flat" 1.0
    (Xmlcore.Stats.flatness [ "a", 3; "b", 3 ]);
  Alcotest.(check (float 1e-9)) "skewed" 0.1
    (Xmlcore.Stats.flatness [ "a", 1; "b", 10 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Xmlcore.Stats.flatness [])

let stats_totals_prop =
  QCheck.Test.make ~name:"histogram totals = node counts" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      List.for_all
        (fun (tag, h) ->
          Xmlcore.Stats.total_count h
          = List.length
              (List.filter
                 (fun n -> Doc.value doc n <> None)
                 (Doc.nodes_with_tag doc tag)))
        (Xmlcore.Stats.all_histograms doc))

let () =
  Alcotest.run "xmlcore"
    [ ("tree", [ Alcotest.test_case "basics" `Quick tree_basics ]);
      ( "doc",
        [ Alcotest.test_case "indexing" `Quick doc_indexing;
          Alcotest.test_case "rejects mixed content" `Quick doc_rejects_mixed ]
        @ List.map QCheck_alcotest.to_alcotest
            [ doc_roundtrip_prop; doc_parent_child_inverse; doc_subtree_sizes ] );
      ( "parser",
        [ Alcotest.test_case "basics" `Quick parser_basics;
          Alcotest.test_case "entities" `Quick parser_entities;
          Alcotest.test_case "cdata & prolog" `Quick parser_cdata_comments;
          Alcotest.test_case "whitespace" `Quick parser_whitespace;
          Alcotest.test_case "errors" `Quick parser_errors ]
        @ List.map QCheck_alcotest.to_alcotest
            [ parser_fuzz_total; parser_fuzz_mutations ] );
      ( "printer",
        Alcotest.test_case "escaping" `Quick printer_escaping
        :: List.map QCheck_alcotest.to_alcotest
             [ roundtrip_prop; roundtrip_indented_prop; serialized_size_agrees ] );
      ( "stats",
        [ Alcotest.test_case "histogram" `Quick stats_histogram;
          Alcotest.test_case "census" `Quick stats_census;
          Alcotest.test_case "flatness" `Quick stats_flatness ]
        @ List.map QCheck_alcotest.to_alcotest [ stats_totals_prop ] ) ]
