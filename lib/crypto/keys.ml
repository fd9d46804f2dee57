(* Every field is computed once in [create] and never changes, so a
   ring can be shared across pool domains as it is. *)
type t = {
  master : string;
  suite : Cipher.suite;
  block_key : string;
  block_cipher : Cipher.prepared;
  block_mac_key : string;
  tag_key : string;
  dsi_key : string;
  decoy_key : string;
}

let derive_from master label = Hmac.mac ~key:master ("derive\x00" ^ label)

let create ?(suite = Cipher.Xtea) ~master () =
  let block_key = derive_from master "block-cipher" in
  { master;
    suite;
    block_key;
    block_cipher = Cipher.prepare suite block_key;
    block_mac_key = derive_from master "block-mac";
    tag_key = derive_from master "tag-vernam";
    dsi_key = derive_from master "dsi-weights";
    decoy_key = derive_from master "decoy" }

let suite t = t.suite

let derive t label = derive_from t.master label

let block_key t = t.block_key

let block_cipher t = t.block_cipher

let block_mac_key t = t.block_mac_key

(* The nonce only needs to be unique per (block, content version); the
   IV derivation is keyed downstream, so the identifiers themselves
   suffice.  Generation 0 keeps the historical shape so freshly hosted
   blocks stay byte-identical across versions of this code; re-encrypted
   blocks (incremental updates) bump the generation and therefore never
   reuse a nonce under the same key with different plaintext. *)
let block_nonce _t ?(generation = 0) ~block_id () =
  if generation = 0 then Printf.sprintf "blk-%d" block_id
  else Printf.sprintf "blk-%d.%d" block_id generation

let tag_key t = t.tag_key

let tag_pad_id tag = "tag\x00" ^ tag

let ope_key t ~attribute = derive t ("ope\x00" ^ attribute)

let opess_key t ~attribute = derive t ("opess\x00" ^ attribute)

let dsi_key t = t.dsi_key

let decoy_key t = t.decoy_key
