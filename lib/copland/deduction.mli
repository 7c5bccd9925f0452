(** Attacker deduction.

    Saturates a knowledge set under the Dolev-Yao decomposition rules
    (projection, decryption with known keys, signature payload extraction)
    and decides derivability of arbitrary terms under composition
    (pairing, encryption, signing and hashing with derivable parts). *)

type t

val of_list : Term.t list -> t
(** Build and saturate attacker knowledge. *)

val add : t -> Term.t -> t
(** Extend the knowledge (re-saturates incrementally). *)

val derives : t -> Term.t -> bool
(** Can the attacker construct the term? *)

type proof =
  | Known of Term.t  (** in the saturated knowledge (intercepted/decomposed) *)
  | Build of Term.t * proof list  (** attacker composition from derivable parts *)

val prove : t -> Term.t -> proof option
(** Constructive {!derives}: [Some witness] explaining exactly how the
    attacker assembles the term, [None] when it is underivable.  Used to
    turn property violations into concrete attack traces. *)

val pp_proof : Format.formatter -> proof -> unit
