(** Symbolic protocol terms (Dolev-Yao model).

    Cryptography is perfect: an encryption can only be opened with its key,
    a signature only produced with its signing key, a hash never inverted.
    This is the term language in which the attestation protocol of paper
    Figure 3 is modelled and verified (paper section 7.2.2 used ProVerif
    for the same job). *)

type t =
  | Const of string  (** public constants: principal names, labels, ids *)
  | Fresh of string  (** values freshly generated by honest parties:
                         nonces, symmetric keys, secret keys, payloads *)
  | Pub of t  (** public half of a secret key *)
  | Pair of t * t
  | Senc of t * t  (** [Senc (k, m)]: symmetric encryption of [m] under [k] *)
  | Aenc of t * t  (** [Aenc (Pub sk, m)]: asymmetric encryption *)
  | Sign of t * t  (** [Sign (sk, m)]: signature; reveals [m] *)
  | Hash of t

val pair_list : t list -> t
(** Right-nested pairs; [pair_list []] is [Const "nil"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val subterms : t -> t list
(** All subterms including the term itself (no duplicates). *)

module Set : Set.S with type elt = t
