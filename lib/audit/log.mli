(** Append-only Merkle transparency log over signed attestation verdicts.

    The log stores raw entries (serialized signed AS reports), maintains
    the RFC 6962 tree over them with memoized interior nodes (an append
    costs O(log n) new hashes, a proof costs O(log n) lookups), and signs
    tree heads with the operator's key.  [append_with_receipt] is the
    verdict hot path: append, sign the new head, and return an inclusion
    receipt the customer can verify before accepting the verdict. *)

type t

val create :
  log_id:string -> key:Crypto.Rsa.secret -> ?clock:(unit -> Sim.Time.t) -> unit -> t
(** [clock] timestamps STHs; defaults to a clock stuck at zero. *)

val log_id : t -> string
val public_key : t -> Crypto.Rsa.public
val size : t -> int

val append : t -> string -> int
(** Appends an entry and returns its index. *)

val append_with_receipt : t -> string -> Receipt.t
(** Append plus a fresh signed head over the new size and the entry's
    inclusion proof.  Does not count as a periodic checkpoint. *)

val entry : t -> int -> string option

val root : t -> string
val root_at : t -> int -> string
(** [root_at t n] is the historical root over the first [n] entries
    ({!Crypto.Merkle.empty_root} for [n = 0]).  Raises [Invalid_argument]
    beyond the current size. *)

val checkpoint : t -> Sth.t
(** Sign and record a tree head over the current contents; the periodic
    (per [Sim.Engine.every] interval) commitment auditors gossip. *)

val latest_sth : t -> Sth.t option
(** Most recent head signed by {!checkpoint} or {!append_with_receipt}. *)

val inclusion : t -> size:int -> int -> Crypto.Merkle.proof
(** [inclusion t ~size i] proves entry [i] is in the tree over the first
    [size] entries; verifies with {!Crypto.Merkle.verify} against
    [root_at t size]. *)

val consistency : t -> old_size:int -> size:int -> string list
(** Proof that the tree at [old_size] is a prefix of the tree at [size];
    verifies with {!Crypto.Merkle.verify_consistency}. *)

(** {1 Counters} *)

val appends : t -> int
val checkpoints : t -> int
val proofs_served : t -> int
