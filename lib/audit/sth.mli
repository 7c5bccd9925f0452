(** Signed tree heads (RFC 6962 STHs) over an attestation-verdict log.

    An STH is the log operator's signed commitment to the entire log
    contents at a given size: once a customer or auditor holds an STH, the
    operator can only extend the log — rewriting or dropping an entry
    changes the root and is caught by the next consistency proof, and
    showing different customers different contents (a split view) yields
    two signed STHs of the same log that no consistency proof can
    reconcile, which is itself cryptographic evidence of equivocation. *)

type t = {
  log_id : string;  (** which log this head commits (one per AS / cluster) *)
  size : int;  (** number of entries committed *)
  root : string;  (** Merkle root over entries [0, size) *)
  at : Sim.Time.t;  (** simulated issue time *)
  signature : string;  (** RSA signature by the log operator *)
}

val sign : Crypto.Rsa.secret -> log_id:string -> size:int -> root:string -> at:Sim.Time.t -> t

val verify : key:Crypto.Rsa.public -> t -> bool
(** Checks the operator signature over the domain-separated STH payload. *)

val equal : t -> t -> bool

val encode : Wire.Codec.Enc.t -> t -> unit
val decode : Wire.Codec.Dec.t -> t

val to_string : t -> string
val of_string : string -> t option
(** Standalone wire form, for gossip datagrams. *)
