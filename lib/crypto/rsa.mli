(** RSA signatures and encryption over {!Bignum}.

    This is the public-key layer used for all identity keys ({i SKc}, {i SKa},
    {i SKs}, {i SKcust}), the per-attestation session keys ({i ASKs}/{i AVKs})
    and the privacy-CA certificates.  Signatures are SHA-256 with
    PKCS#1-v1.5-style padding; encryption uses randomized type-2 padding.
    Key sizes are configurable so tests can run with small, fast keys. *)

type public = { n : Bignum.t; e : Bignum.t; bits : int }

type crt = { p : Bignum.t; q : Bignum.t; dp : Bignum.t; dq : Bignum.t; qinv : Bignum.t }
(** The prime factorization and derived exponents that let the private
    operation run as two half-width exponentiations (d mod p-1, d mod q-1,
    q{^-1} mod p) recombined by Garner's formula. *)

type secret = { pub : public; d : Bignum.t; crt : crt option }
(** [crt = None] (e.g. a secret reconstituted from a stored (n, d) pair)
    falls back to one full-width exponentiation; the produced bytes are
    identical either way. *)

type keypair = { public : public; secret : secret }

val generate : Drbg.t -> bits:int -> keypair
(** [generate drbg ~bits] creates a keypair with a [bits]-bit modulus and
    public exponent 65537.  Secrets carry CRT parameters. *)

val sign : ?crt:bool -> ?window:bool -> secret -> string -> string
(** Detached signature over the SHA-256 digest of the message.  [crt]
    (default [true]) and [window] (default [true]) select the CRT split
    and sliding-window exponentiation; all four combinations produce
    byte-identical signatures — the flags exist for the crypto bench's
    ablation rows and the equivalence tests. *)

val verify : public -> signature:string -> string -> bool

module Memo : sig
  (** LRU of verification verdicts keyed by
      [(fingerprint pub, Sha256.digest msg, Sha256.digest signature)].
      Verification is a pure function of those bytes, so a hit returns
      the identical verdict without the exponentiation. *)

  type t

  val create : capacity:int -> t
  val shared : unit -> t
  (** The process-wide memo (4096 entries) that {!verify_memo} defaults
      to. *)

  val hits : t -> int
  val misses : t -> int
  val length : t -> int
  val clear : t -> unit
end

val verify_memo : ?memo:Memo.t -> public -> signature:string -> string -> bool
(** {!verify} through the memo (the shared one unless [memo] is given).
    Used at the verify sites that re-check recurring artifacts:
    certificates, quotes under batch re-appraisal, tree heads and audit
    receipts. *)

val encrypt : Drbg.t -> public -> string -> string
(** @raise Invalid_argument when the plaintext exceeds the modulus capacity
    (modulus bytes - 11). *)

val decrypt : secret -> string -> string option
(** [None] when the padding does not parse (tampered or wrong key). *)

val max_plaintext : public -> int

val fingerprint : public -> string
(** SHA-256 of the encoded public key: a stable identity for key tables. *)

val public_to_string : public -> string
val public_of_string : string -> public option
(** Round-trippable wire encoding of a public key. *)
