(** Protocol-space experiment over Copland-style attestation phrases.

    Two sections.  The {e symbolic} section runs the generated Dolev-Yao
    model ({!Copland.Dy}) over a catalogue of named terms — the default
    phrase, the composition shapes, and deliberately weakened variants
    with their planted expected violations — and records whether each
    verdict came back as expected (default and shapes: all checks hold,
    zero attacks; weakened terms: every planted check id violated with at
    least one concrete attack).  The {e executable} section interprets the
    well-typed shapes over live clouds at two scales and compares the
    observed wire messages and non-network ledger compute against the
    static {!Copland.Estimate} envelope.

    Exit-status material: {!clean} is false when the catalogue holds fewer
    than three weakened terms, a weakened term has no attack, any symbolic
    verdict deviates from its planted expectation, or any executed run
    leaves its estimate envelope.  Everything is
    simulated and seeded, so the JSON artifact is byte-stable and
    committable.

    The [verify] entry runs the symbolic section over the paper's section
    7.2.2 table instead ({!verification}): the protocol as specified and
    five weakened variants, each held to its exact expected violation
    set. *)

type symbolic_row = {
  name : string;
  term : Copland.Phrase.t;
  weakened : bool;
  expected : string list;
      (** planted expectation: check ids that must be violated ([] = the
          term must verify cleanly) *)
  violated : string list;  (** what {!Copland.Dy} actually reported *)
  attacks : int;  (** concrete attacks attached to the report *)
  checks : Copland.Dy.check list;  (** the full verdict, in check order *)
  as_expected : bool;
}

type exec_row = {
  e_name : string;
  e_term : Copland.Phrase.t;
  servers : int;
  as_clusters : int;
  status : Core.Report.status;
  leaves : int;
  messages : int;  (** wire messages this run *)
  drops : int;  (** dropped messages (0 on these fault-free clouds) *)
  compute : Sim.Time.t;  (** ledger total minus the network labels *)
  estimate : Copland.Estimate.t;
  within_estimate : bool;
}

type result = { seed : int; symbolic : symbolic_row list; executable : exec_row list }

val run : ?seed:int -> unit -> result
val clean : result -> bool
val print : result -> unit
val to_json : result -> Json.t

val verification : unit -> symbolic_row list
(** The section 7.2.2 rows, in the paper's order. *)

val verified : symbolic_row list -> bool
(** Every row violates exactly its expected checks, every weakened row
    carries an attack and the secure row none; recomputed from the rows'
    fields, not read from [as_expected]. *)

val print_verification : symbolic_row list -> unit
