(** Per-phrase Dolev-Yao verification: the one symbolic model of the
    attestation protocol (paper Figure 3, section 7.2.2).

    Generates the symbolic protocol model from a phrase — two sessions
    over long-lived channel keys, per-leaf session keys and nonces, plus
    the attacker knowledge each weakened form grants — and runs eight
    checks over it: the paper's six section 7.2.2 properties, with secrecy
    and integrity each split in two.  The paper's weakened variants are
    phrases too ([a-0.0], [ae0.0], [ak0.0], [akm0.0], [akr0.0]).  Every
    violation comes with a concrete attack: the forged or replayed message
    and its derivation. *)

type outcome = Holds | Violated of string  (** why: the first broken item *)

type check = { id : string; name : string; outcome : outcome }

val check_ids : string list
(** All check ids, in report order. *)

type attack = {
  check_id : string;
  description : string;
  message : Term.t;  (** the accepting forged/replayed term *)
  proof : Deduction.proof;  (** how the attacker assembles it *)
}

type report = {
  phrase : Phrase.t;
  checks : check list;  (** in {!check_ids} order *)
  attacks : attack list;
}

val verify : Phrase.t -> report
(** Pure and deterministic; needs no cloud (the model is the phrase). *)

val holds : report -> bool
(** All eight checks hold. *)

val violated : report -> string list
(** Ids of the violated checks, in report order. *)

val pp_check : Format.formatter -> check -> unit
val pp_attack : Format.formatter -> attack -> unit
