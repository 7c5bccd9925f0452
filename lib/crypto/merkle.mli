(** Binary Merkle tree over {!Sha256}, for batched attestation quotes.

    One Trust-Module signature over the root covers many measurement
    reports; each report stays individually checkable through its O(log n)
    inclusion proof, so a verifier never has to trust the aggregator.

    Leaf and interior hashes are domain-separated (a leaf digest can never
    be replayed as an interior node or vice versa), which blocks the
    classic second-preimage tricks on unbalanced trees.  The tree is the
    RFC 6962 one: a span of two or more leaves splits at the largest power
    of two below its size, which is the same as pairing nodes level by
    level and promoting an odd last node unchanged.  Its shape is a
    deterministic function of the leaf count alone. *)

type proof
(** An inclusion proof: the sibling hashes from a leaf up to the root,
    each tagged with the side it hashes on. *)

val leaf_hash : string -> string
(** [leaf_hash data] is the domain-separated digest a leaf contributes. *)

val root : string list -> string
(** [root leaves] is the Merkle root of the leaf {e data} (hashed with
    {!leaf_hash} internally).  Raises [Invalid_argument] on []. *)

val proof : string list -> int -> proof
(** [proof leaves i] is the inclusion proof for leaf [i] (0-based).
    Raises [Invalid_argument] if [i] is out of range or [leaves] is []. *)

val verify : root:string -> leaf:string -> proof -> bool
(** [verify ~root ~leaf p] checks that [leaf] (raw data, not a digest) is
    included under [root] via [p]. *)

val proof_length : proof -> int
(** Number of sibling hashes in the proof (= the leaf's depth). *)

val verify_at : root:string -> leaf:string -> index:int -> size:int -> proof -> bool
(** [verify_at ~root ~leaf ~index ~size p] is {!verify} plus position
    binding: the proof's side sequence must match the unique path of leaf
    [index] in a tree over [size] leaves.  {!verify} alone accepts a valid
    proof under any claimed index; receipts (lib/audit) need the index to
    be part of what is verified. *)

val node_count : int -> int
(** [node_count n] is the total number of hash evaluations needed to build
    a tree over [n] leaves (leaf hashes + interior nodes) — the term the
    cost model charges per batch. *)

val max_proof_length : int -> int
(** [max_proof_length n] is the longest inclusion proof in a tree over [n]
    leaves (= ceil(log2 n)); the per-report verification cost bound. *)

val encode : Wire.Codec.Enc.t -> proof -> unit
val decode : Wire.Codec.Dec.t -> proof
(** Wire codecs, so proofs travel inside batch measurement responses. *)

(** {1 RFC 6962-style log views}

    An append-only log serves inclusion proofs against any historical tree
    size, and consistency proofs showing one tree head is a prefix of a
    later one.  Proof {e generation} is parameterised by a subtree-root
    oracle [sub lo hi] (the root over leaves [lo, hi)), letting
    incremental logs memoize interior hashes instead of rehashing. *)

val node_hash : string -> string -> string
(** Domain-separated interior-node hash; exposed for log implementations
    that memoize subtree roots. *)

val empty_root : string
(** Conventional root of the empty tree (digest of a domain tag; RFC 6962
    uses SHA-256 of the empty string — any fixed constant works as long as
    both sides agree). *)

val inclusion_with : sub:(int -> int -> string) -> size:int -> int -> proof
(** [inclusion_with ~sub ~size i] is the inclusion proof for leaf [i]
    against the tree over the first [size] leaves.  For [size] equal to
    the full leaf count it produces exactly {!proof}'s output, and it
    verifies with {!verify}.  Raises [Invalid_argument] if [i] or [size]
    is out of range. *)

val consistency_with : sub:(int -> int -> string) -> old_size:int -> size:int -> string list
(** [consistency_with ~sub ~old_size ~size] proves the tree over the first
    [old_size] leaves is a prefix of the tree over the first [size]
    leaves (RFC 6962 section 2.1.2).  Empty when [old_size] is [0] or
    equals [size].  Raises [Invalid_argument] if [old_size > size]. *)

val verify_consistency :
  old_size:int -> old_root:string -> size:int -> root:string -> string list -> bool
(** Checks a {!consistency_with} proof: accepts iff the [old_size]-leaf
    tree with root [old_root] is a prefix of the [size]-leaf tree with
    root [root]. *)

val root_prefix : string list -> size:int -> string
(** [root_prefix leaves ~size] is the root over the first [size] leaves;
    [root_prefix leaves ~size:(List.length leaves)] equals
    [root leaves], and [~size:0] is {!empty_root}. *)

val inclusion_prefix : string list -> size:int -> int -> proof
(** List-of-leaves convenience over {!inclusion_with}. *)

val consistency : string list -> old_size:int -> string list
(** [consistency leaves ~old_size] is
    [consistency_with ~old_size ~size:(List.length leaves)] over the given
    leaves. *)
