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

(** {1 The append-only tree}

    One tree value holds the leaf hashes and a memo of interior roots, so
    every root and proof it serves hashes each leaf once, an append costs
    O(log n) new interior hashes, and a proof O(log n) lookups.  An
    append-only log serves inclusion proofs against any historical tree
    size, and consistency proofs showing one tree head is a prefix of a
    later one. *)

type tree

val of_leaves : string list -> tree
(** The tree over the leaf {e data} (hashed with {!leaf_hash}); [of_leaves
    []] is the empty tree. *)

val add : tree -> string -> unit
(** Append one leaf's data. *)

val size : tree -> int

val empty_root : string
(** Conventional root of the empty tree (digest of a domain tag; RFC 6962
    uses SHA-256 of the empty string — any fixed constant works as long as
    both sides agree). *)

val root_at : tree -> int -> string
(** [root_at t n] is the root over the first [n] leaves ({!empty_root}
    for [n = 0]); at the full size it equals {!root} over the same leaf
    data.  Raises [Invalid_argument] beyond {!size}. *)

val inclusion : tree -> size:int -> int -> proof
(** [inclusion t ~size i] is the inclusion proof for leaf [i] against the
    tree over the first [size] leaves.  At the full size it is exactly
    {!proof}'s output, and it verifies with {!verify}.  Raises
    [Invalid_argument] if [i] or [size] is out of range. *)

val consistency : tree -> old_size:int -> size:int -> string list
(** [consistency t ~old_size ~size] proves the tree over the first
    [old_size] leaves is a prefix of the tree over the first [size]
    leaves (RFC 6962 section 2.1.2).  Empty when [old_size] is [0] or
    equals [size].  Raises [Invalid_argument] if [old_size > size] or
    [size] is beyond {!size}. *)

val verify_consistency :
  old_size:int -> old_root:string -> size:int -> root:string -> string list -> bool
(** Checks a {!consistency} proof: accepts iff the [old_size]-leaf tree
    with root [old_root] is a prefix of the [size]-leaf tree with root
    [root]. *)
