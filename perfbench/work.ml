(* The three workloads' inputs, all made from the --seed argument: the
   same seed gives the same document, query rounds and edit rounds.
   The program under test receives only these generated inputs. *)

module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree
module U = Secure.Update
module Q = Workload.Querygen

type workload = Xmark_scan | Xmark_hot | Health_churn

let all = [ Xmark_scan; Xmark_hot; Health_churn ]

let name = function
  | Xmark_scan -> "xmark-scan"
  | Xmark_hot -> "xmark-hot"
  | Health_churn -> "health-churn"

let of_name s = List.find_opt (fun w -> name w = s) all

let master = "perfbench"
let xmark_persons = 1000
let health_patients = 300

(* Hostings timed for setup_s; the median is reported. *)
let hostings = function Xmark_scan | Xmark_hot -> 5 | Health_churn -> 7

let parse = Xpath.Parser.parse

(* Distinct streams for the document, each query family and each
   benchmark-side choice, all derived from the one seed. *)
let stream seed salt = Int64.of_int ((seed * 1_000_003) + salt)
let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let document w seed =
  match w with
  | Xmark_scan | Xmark_hot ->
    Workload.Xmark.generate ~seed:(stream seed 1) ~persons:xmark_persons ()
  | Health_churn -> Workload.Health.generate ~seed:(stream seed 2) ~patients:health_patients ()

let constraints = function
  | Xmark_scan | Xmark_hot -> Workload.Xmark.constraints ()
  | Health_churn -> Workload.Health.constraints ()

let family_salt = function Q.Qs -> 10 | Q.Qm -> 11 | Q.Ql -> 12 | Q.Qv -> 13

(* A query's shape without its axes and literals: the tag chain, with
   each predicate's path in brackets.  Queries of one shape select the
   same kind of nodes and ship the same kind of blocks. *)
let rec shape (p : Xpath.Ast.path) =
  String.concat "/"
    (List.map
       (fun (s : Xpath.Ast.step) ->
         (match s.Xpath.Ast.test with Xpath.Ast.Tag t -> t | Xpath.Ast.Wildcard -> "*")
         ^ String.concat "" (List.map predicate_shape s.Xpath.Ast.predicates))
       p.Xpath.Ast.steps)

and predicate_shape = function
  | Xpath.Ast.Compare (p, _, _) | Xpath.Ast.Exists p -> "[" ^ shape p ^ "]"
  | Xpath.Ast.And (a, b) | Xpath.Ast.Or (a, b) -> predicate_shape a ^ predicate_shape b
  | Xpath.Ast.Not a -> predicate_shape a

(* A family's generated queries grouped by shape, groups in shape
   order.  Drawing the same number from every group gives every seed the
   same make-up of query kinds; the seed only varies axes, targets and
   literals. *)
let strata doc seed family =
  let queries = Q.generate ~seed:(stream seed (family_salt family)) doc family ~count:200 in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun q ->
      let k = shape q in
      Hashtbl.replace groups k (q :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    queries;
  Hashtbl.fold (fun k qs acc -> (k, Array.of_list (List.rev qs)) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let cycle src n = Array.init n (fun i -> src.(i mod Array.length src))
let per_stratum groups k = Array.concat (List.map (fun g -> cycle g k) groups)

(* xmark-scan: one round is 4 Qs and 18 Qm queries (every block
   shipped; 20% of the round) and 4 queries of every Ql and Qv shape
   (pruned; mostly a few blocks, 1000 for the name and creditcard
   shapes), shuffled.  The median sits inside the pruned population and
   the 90th percentile inside the Qm one, away from both boundaries. *)
let scan_per_shape = 4

let scan_round doc seed =
  let round =
    Array.concat
      [ per_stratum (strata doc seed Q.Qs) 4;
        per_stratum (strata doc seed Q.Qm) 18;
        per_stratum (strata doc seed Q.Ql) scan_per_shape;
        per_stratum (strata doc seed Q.Qv) scan_per_shape ]
  in
  shuffle (rng seed 3) round;
  round

(* xmark-hot: a pool of distinct Ql/Qv queries, 6 of every shape (120
   on XMark), larger than the engine's 64-entry result memo, requested
   with Zipf(0.6) skew over ranks that cycle through the shapes in a
   fixed order.  The head fits the memo and the tail misses it: about
   30% of the round are result-memo hits on pruned queries, 50% misses
   on pruned queries, and 20% queries on the block-encrypted leaves (a
   block per person, beyond the 256-entry block cache).  The median
   sits in the middle of the pruned misses and the 90th percentile in
   the middle of the block-encrypted population. *)
let hot_per_shape = 6
let hot_round_length = 200
let zipf_exponent = 0.6

(* The leaves the XMark constraints' optimal cover encrypts (see
   Workload.Xmark.constraints); every query on them ships a block per
   person. *)
let xmark_block_tags = [ "name"; "creditcard" ]

let on_block_tag shape =
  List.exists
    (fun tag ->
      let ends suffix =
        let n = String.length shape and k = String.length suffix in
        n >= k && String.sub shape (n - k) k = suffix
      in
      ends ("/" ^ tag) || ends ("[" ^ tag ^ "]"))
    xmark_block_tags

(* Cycle positions of the block-encrypted shapes among the 20 XMark
   Ql/Qv shapes: chosen so that they take 20% of the Zipf(0.6) round. *)
let block_positions = [ 1; 9; 12; 14 ]

let hot_pool doc seed =
  let st = rng seed 4 in
  let groups =
    List.map
      (fun g ->
        shuffle st g;
        g)
      (strata doc seed Q.Ql @ strata doc seed Q.Qv)
  in
  let heavy, light = List.partition (fun g -> on_block_tag (shape g.(0))) groups in
  let rec order pos heavy light =
    match heavy, light with
    | [], rest | rest, [] -> rest
    | h :: hs, l :: ls ->
      if List.mem pos block_positions then h :: order (pos + 1) hs light
      else l :: order (pos + 1) heavy ls
  in
  let groups = order 0 heavy light in
  Array.of_list
    (List.concat
       (List.init hot_per_shape (fun i ->
            List.filter_map (fun g -> if i < Array.length g then Some g.(i) else None) groups)))

(* The round holds every pool rank as often as its Zipf weight asks
   (largest remainder), in seeded order: the skew is exact, so every
   seed's round has the same make-up and only the order varies. *)
let hot_round pool seed =
  let n = Array.length pool in
  let weights = Array.init n (fun i -> 1.0 /. (float (i + 1) ** zipf_exponent)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let quota = Array.map (fun w -> w /. total *. float hot_round_length) weights in
  let counts = Array.map (fun q -> int_of_float q) quota in
  let missing = hot_round_length - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init n (fun i -> i) in
  Array.stable_sort
    (fun a b -> Float.compare (quota.(b) -. float counts.(b)) (quota.(a) -. float counts.(a)))
    by_remainder;
  for k = 0 to missing - 1 do
    let i = by_remainder.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  let round = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c pool.(i)) counts)) in
  shuffle (rng seed 5) round;
  round

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

type expectation =
  | Reads_back of string * string
      (** tag, value: the edited leaves read back the new value *)
  | Inserted of Xpath.Ast.path
      (** the read-back count grows by this parent path's bindings *)
  | Deleted of Xpath.Ast.path
      (** the read-back count shrinks by this path's bindings *)

type edit = {
  kind : string;  (* population, as the README describes the mix *)
  edit : U.edit;
  readback : Xpath.Ast.path;
  expect : expectation;
}

let values doc path = List.filter_map (Doc.value doc) (Xpath.Eval.eval doc path)

let first_value doc path =
  match values doc path with
  | v :: _ -> v
  | [] -> invalid_arg ("Work: no value at " ^ Xpath.Ast.to_string path)

let set_value ~kind ~tag path value =
  { kind; edit = U.Set_value (path, value); readback = path; expect = Reads_back (tag, value) }

(* Distinct indices in [0, n), in draw order. *)
let distinct st n k =
  let chosen = Hashtbl.create k in
  let rec draw acc =
    if List.length acc = k then List.rev acc
    else begin
      let i = Random.State.int st n in
      if Hashtbl.mem chosen i then draw acc
      else begin
        Hashtbl.add chosen i ();
        draw (i :: acc)
      end
    end
  in
  draw []

(* The edit phase of the XMark workloads: 10 credit-card numbers (an
   encrypted leaf, so each edit re-encrypts one block) changed, then the
   same 10 restored.  A fixed 20 edits every run, outside the timed
   query loop. *)
let xmark_edit_persons = 10

let xmark_edits doc seed =
  let persons = distinct (rng seed 6) xmark_persons xmark_edit_persons in
  let card i =
    parse
      (Printf.sprintf "//person[emailaddress='mailto:person%d@example.net']/creditcard" i)
  in
  let edit value i = set_value ~kind:"creditcard" ~tag:"creditcard" (card i) value in
  List.mapi (fun k i -> edit (Printf.sprintf "%04d 0000 0000 %04d" k i) i) persons
  @ List.map (fun i -> edit (first_value doc (card i)) i) persons

(* health-churn: one round of 20 edits on four seeded patients, which
   leaves the document as it found it:
   - 4 inserts of a new treat record (each falls back to a full
     re-host today: the incremental path cannot encrypt the new
     disease block);
   - 4 deletes of those treat records and one remark insert/delete
     pair (structural edits absorbed by DSI gaps);
   - 4 age edits (plaintext leaf: catalogs and B-tree only) and 4
     disease edits (encrypted leaf: one block re-encrypted), each a
     change and its restore;
   - 2 policy# edits (encrypted leaf), a change and its restore.
   Fallbacks are 20% of the round, so the 90th percentile of edit
   latency sits in the middle of their population. *)
let spare_diseases = [ "measles"; "gastritis"; "eczema"; "hepatitis"; "pneumonia" ]

let churn_round doc seed =
  let pnames = Array.of_list (values doc (parse "/hospital/patient/pname")) in
  let pick = Array.of_list (distinct (rng seed 7) (Array.length pnames) 4) in
  let patient k = Printf.sprintf "//patient[pname='%s']" pnames.(pick.(k)) in
  let at k rest = parse (patient k ^ rest) in
  let age k v = set_value ~kind:"age" ~tag:"age" (at k "/age") v in
  let orig_age k = first_value doc (at k "/age") in
  let new_age k = string_of_int ((int_of_string (orig_age k) + 37) mod 99 + 1) in
  let disease_of k = first_value doc (at k "/treat/disease") in
  let spare k =
    let present = values doc (at k "/treat/disease") in
    List.find (fun d -> not (List.mem d present)) spare_diseases
  in
  let disease k ~from ~into =
    { kind = "disease";
      edit = U.Set_value (at k (Printf.sprintf "/treat[disease='%s']/disease" from), into);
      readback = at k "/treat/disease";
      expect = Reads_back ("disease", into) }
  in
  let policy k v = set_value ~kind:"policy#" ~tag:"policy#" (at k "/insurance/policy#") v in
  let orig_policy k = first_value doc (at k "/insurance/policy#") in
  let treat_insert k =
    { kind = "treat-insert";
      edit =
        U.Insert_child
          { parent = parse (patient k);
            position = 2;
            subtree =
              Tree.element "treat" [ Tree.leaf "disease" "flu"; Tree.leaf "doctor" "Locum" ] };
      readback = at k "/treat";
      expect = Inserted (parse (patient k)) }
  in
  let treat_delete k =
    let path = at k "/treat[doctor='Locum']" in
    { kind = "treat-delete"; edit = U.Delete_nodes path; readback = at k "/treat"; expect = Deleted path }
  in
  let remark_insert k =
    { kind = "remark-insert";
      edit =
        U.Insert_child
          { parent = parse (patient k); position = 0; subtree = Tree.leaf "remark" "follow-up" };
      readback = at k "/remark";
      expect = Inserted (parse (patient k)) }
  in
  let remark_delete k =
    let path = at k "/remark" in
    { kind = "remark-delete"; edit = U.Delete_nodes path; readback = path; expect = Deleted path }
  in
  let d1 = disease_of 1 and d3 = disease_of 3 in
  let s1 = spare 1 and s3 = spare 3 in
  [ treat_insert 0;
    age 0 (new_age 0);
    disease 1 ~from:d1 ~into:s1;
    remark_insert 2;
    treat_delete 0;
    treat_insert 1;
    age 2 (new_age 2);
    disease 3 ~from:d3 ~into:s3;
    policy 3 "00000";
    treat_delete 1;
    treat_insert 2;
    age 0 (orig_age 0);
    disease 1 ~from:s1 ~into:d1;
    remark_delete 2;
    treat_delete 2;
    treat_insert 3;
    age 2 (orig_age 2);
    disease 3 ~from:s3 ~into:d3;
    policy 3 (orig_policy 3);
    treat_delete 3 ]
