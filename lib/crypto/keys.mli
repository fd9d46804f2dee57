(** Client key management.

    The client holds a single master secret; every other key in the
    system (block encryption keys, tag pads, OPE keys, OPESS split and
    scale randomness, DSI gap weights) is derived from it with
    HMAC-SHA-256 so nothing but the master secret needs to be stored.

    Derivation labels are namespaced so independent uses can never
    collide. *)

type t
(** A key ring rooted at a master secret.  Immutable: the fixed
    subkeys (block cipher schedule, block MAC, tag, DSI and decoy keys)
    are derived once by {!create}, so one ring may be read from several
    domains at once. *)

val create : ?suite:Cipher.suite -> master:string -> unit -> t
(** [create ~master ()] builds the ring.  [suite] selects the block
    cipher for subtree encryption (default {!Cipher.Xtea}). *)

val suite : t -> Cipher.suite

val derive : t -> string -> string
(** [derive t label] is a 32-byte subkey bound to [label], recomputed
    (one HMAC) on every call; callers keep the result they need. *)

val block_key : t -> string
(** Key for CBC encryption of XML subtree blocks. *)

val block_cipher : t -> Cipher.prepared
(** Prepared (schedule-expanded) form of {!block_key} under the ring's
    suite. *)

val block_mac_key : t -> string
(** Key for the encrypt-then-MAC tag on every block
    ([derive t "block-mac"]). *)

val block_nonce : t -> ?generation:int -> block_id:int -> unit -> string
(** Per-block CBC nonce, unique per (block, generation); keyed
    downstream.  [generation] defaults to [0] (a freshly hosted block)
    and is bumped by incremental re-encryption so the same block id
    never reuses a nonce for different plaintext. *)

val tag_key : t -> string
(** Key for the Vernam tag pads. *)

val tag_pad_id : string -> string
(** [tag_pad_id tag] is the deterministic pad id used to encrypt [tag];
    one pad per distinct tag keeps translation deterministic. *)

val ope_key : t -> attribute:string -> string
(** Per-attribute key for the order-preserving encryption function. *)

val opess_key : t -> attribute:string -> string
(** Per-attribute key for OPESS split weights and scale factors. *)

val dsi_key : t -> string
(** Key for DSI gap weights. *)

val decoy_key : t -> string
(** Key for generating encryption decoy values. *)
