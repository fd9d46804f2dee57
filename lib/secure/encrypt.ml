module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

type block = {
  id : int;
  root : Doc.node;
  ciphertext : string;
  plaintext_bytes : int;
  node_count : int;
  has_decoy : bool;
  generation : int;
}

type db = {
  doc : Doc.t;
  scheme : Scheme.t;
  blocks : block list;
  skeleton : Tree.t;
  encrypted_tags : string list;
  plaintext_tags : string list;
  node_block : int array;
  block_by_id : block option array;
}

(* Models the EncryptedData / EncryptionMethod / CipherValue wrapper
   elements of W3C XML-Encryption around every block. *)
let block_header_bytes = 120

let placeholder_prefix = "_enc_block_"

let placeholder_tag id = placeholder_prefix ^ string_of_int id

let placeholder_id tag =
  let n = String.length placeholder_prefix in
  if String.length tag > n && String.sub tag 0 n = placeholder_prefix then
    int_of_string_opt (String.sub tag n (String.length tag - n))
  else None

let decoy_attribute = "@_decoy"

let decoy_value ~keys ~root =
  let raw = Crypto.Hmac.mac ~key:(Crypto.Keys.decoy_key keys) (string_of_int root) in
  (* Short alphanumeric salt, like the paper's "xyya". *)
  String.init 6 (fun i -> Char.chr (Char.code 'a' + (Char.code raw.[i] mod 26)))

let add_decoy ~keys ~root tree =
  match tree with
  | Tree.Element (tag, children) ->
    Tree.Element (tag, Tree.leaf decoy_attribute (decoy_value ~keys ~root) :: children)
  | Tree.Text _ -> assert false

let strip_decoy tree =
  match tree with
  | Tree.Element (tag, children) ->
    let children =
      List.filter
        (function
          | Tree.Element (t, _) -> not (String.equal t decoy_attribute)
          | Tree.Text _ -> true)
        children
    in
    Tree.Element (tag, children)
  | Tree.Text _ -> tree

exception Tampered of int

let mac_tag_bytes = 16

(* Truncated encrypt-then-MAC tag binding the ciphertext to its block
   id and content generation (prevents corruption, block-swapping and
   rollback to a superseded generation).  Generation 0 keeps the
   historical MAC input so freshly hosted blocks stay byte-identical;
   the "#" separator cannot collide with it because ids render as bare
   digits. *)
let block_mac ~keys ~id ?(generation = 0) ciphertext =
  let input =
    if generation = 0 then Printf.sprintf "%d\x00%s" id ciphertext
    else Printf.sprintf "%d#%d\x00%s" id generation ciphertext
  in
  String.sub
    (Crypto.Hmac.mac ~key:(Crypto.Keys.block_mac_key keys) input)
    0 mac_tag_bytes

let encrypt_one ~keys ?(generation = 0) doc ~id root =
  let has_decoy = Doc.is_leaf doc root in
  let subtree = Doc.subtree doc root in
  let payload = if has_decoy then add_decoy ~keys ~root subtree else subtree in
  let serialized = Xmlcore.Printer.tree_to_string payload in
  let ciphertext =
    let body =
      Crypto.Cipher.encrypt (Crypto.Keys.block_cipher keys)
        ~nonce:(Crypto.Keys.block_nonce keys ~generation ~block_id:id ())
        serialized
    in
    body ^ block_mac ~keys ~id ~generation body
  in
  { id;
    root;
    ciphertext;
    plaintext_bytes = String.length serialized;
    node_count = Doc.subtree_node_count doc root + (if has_decoy then 1 else 0);
    has_decoy;
    generation }

let encrypt_block = encrypt_one

(* Rebuild the tree with block subtrees replaced by placeholders.
   [block_at] maps a node id to its block id when the node is a block
   root. *)
let skeleton_of doc ~block_at =
  let rec rebuild n =
    match block_at n with
    | Some id -> Tree.element (placeholder_tag id) []
    | None ->
      (match Doc.value doc n with
       | Some v -> Tree.leaf (Doc.tag doc n) v
       | None -> Tree.element (Doc.tag doc n) (List.map rebuild (Doc.children doc n)))
  in
  rebuild (Doc.root doc)

(* Shared constructor: every [db] — freshly encrypted or restored from
   disk — goes through here so the derived node→block table exists by
   construction.  Marking each block's [descendant_or_self] run once
   makes [block_of_node] an O(1) array read instead of the old
   O(nodes×blocks) ancestor scan. *)
let make_db ~doc ~scheme ~blocks ~skeleton ~encrypted_tags ~plaintext_tags =
  let node_block = Array.make (Doc.node_count doc) (-1) in
  List.iter
    (fun b ->
      List.iter (fun n -> node_block.(n) <- b.id) (Doc.descendant_or_self doc b.root))
    blocks;
  (* Ids are dense [0..n-1] at setup but become sparse once incremental
     deletes drop whole blocks (dropped ids are never reused — the
     engine's per-generation cache keys depend on that), so the lookup
     table is an option array over the id range. *)
  let max_id = List.fold_left (fun acc b -> Int.max acc b.id) (-1) blocks in
  let block_by_id = Array.make (max_id + 1) None in
  List.iter
    (fun b ->
      if b.id < 0 then invalid_arg "Encrypt.make_db: negative block id";
      if block_by_id.(b.id) <> None then
        invalid_arg "Encrypt.make_db: duplicate block id";
      block_by_id.(b.id) <- Some b)
    blocks;
  { doc; scheme; blocks; skeleton; encrypted_tags; plaintext_tags;
    node_block; block_by_id }

(* The server's half of the split: ciphertext blocks only.  The rest
   of the [db] (plaintext document, scheme, tag partitions) stays on
   the client side of the wire. *)
let server_blocks db = db.blocks

(* Assemble a db around a document and its (already encrypted) blocks:
   recompute the skeleton and the tag partition from the plaintext —
   pure bookkeeping, no cryptography.  Shared by fresh encryption and
   the incremental delta path (which re-encrypts only touched blocks
   and reuses every other ciphertext verbatim). *)
let reassemble ~doc ~scheme ~blocks =
  let root_to_block = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace root_to_block b.root b.id) blocks;
  let skeleton = skeleton_of doc ~block_at:(Hashtbl.find_opt root_to_block) in
  (* Partition tags by whether their nodes fall inside blocks. *)
  let encrypted = Hashtbl.create 64 and plaintext = Hashtbl.create 64 in
  Doc.iter doc (fun n ->
      let inside = Scheme.in_some_block doc scheme n in
      let table = if inside then encrypted else plaintext in
      Hashtbl.replace table (Doc.tag doc n) ());
  let tags table =
    Hashtbl.fold (fun tag () acc -> tag :: acc) table [] |> List.sort String.compare
  in
  make_db ~doc ~scheme ~blocks ~skeleton ~encrypted_tags:(tags encrypted)
    ~plaintext_tags:(tags plaintext)

let encrypt ?pool ~keys doc scheme =
  let roots = Array.of_list scheme.Scheme.block_roots in
  let encrypt_at id root = encrypt_one ~keys doc ~id root in
  (* Each block's cipher+MAC depends only on (id, subtree): the nonce
     is keyed by block id, so evaluation order is irrelevant and the
     pooled path produces byte-identical ciphertexts. *)
  let blocks_arr =
    match pool with
    | Some p -> Parallel.Pool.mapi p encrypt_at roots
    | None -> Array.mapi encrypt_at roots
  in
  reassemble ~doc ~scheme ~blocks:(Array.to_list blocks_arr)

(* Re-encrypt a delta's touched blocks under bumped generations.  Like
   [encrypt], the output is encrypt-then-MAC ciphertext only — which is
   why this is a declassification boundary in the secret-flow policy —
   and nonces are keyed by (id, generation), so the pooled path is
   byte-identical to the sequential one. *)
let reencrypt_blocks ?pool ~keys doc jobs =
  let re (b, root) =
    encrypt_block ~keys ~generation:(b.generation + 1) doc ~id:b.id root
  in
  match pool with
  | Some p when Parallel.Pool.size p > 1 ->
    Parallel.Pool.mapi p (fun _ job -> re job) jobs
  | Some _ | None -> Array.map re jobs

let decrypt_block ~keys block =
  let total = String.length block.ciphertext in
  if total < mac_tag_bytes then raise (Tampered block.id);
  let body = String.sub block.ciphertext 0 (total - mac_tag_bytes) in
  let tag = String.sub block.ciphertext (total - mac_tag_bytes) mac_tag_bytes in
  if
    not
      (Crypto.Eq.constant_time tag
         (block_mac ~keys ~id:block.id ~generation:block.generation body))
  then raise (Tampered block.id);
  let serialized =
    Crypto.Cipher.decrypt (Crypto.Keys.block_cipher keys)
      ~nonce:
        (Crypto.Keys.block_nonce keys ~generation:block.generation
           ~block_id:block.id ())
      body
  in
  let tree = Xmlcore.Parser.parse serialized in
  if block.has_decoy then strip_decoy tree else tree

let block_id_of_node db n =
  let id = db.node_block.(n) in
  if id < 0 then None else Some id

let block_of_node db n =
  match block_id_of_node db n with
  | None -> None
  | Some id -> db.block_by_id.(id)

let encrypted_bytes db =
  List.fold_left
    (fun acc b -> acc + String.length b.ciphertext + block_header_bytes)
    0 db.blocks

let server_bytes db =
  String.length (Xmlcore.Printer.tree_to_string db.skeleton) + encrypted_bytes db
