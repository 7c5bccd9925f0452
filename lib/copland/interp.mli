(** Executable semantics for protocol phrases.

    Runs a well-typed phrase over the real Controller / Attestation Server
    machinery of a live {!Core.Cloud}; ill-typed phrases are rejected
    before any wire traffic.  The default phrase compiles to exactly one
    {!Core.Controller.attest} call — byte-identical wire traffic to the
    hardcoded flow. *)

type leaf_result = {
  slot : int;
  vid : string;
  property : Core.Property.t;
  nonce : string;
  report : (Core.Protocol.controller_report, string) result;
}

type outcome = {
  status : Core.Report.status;
      (** merged verdict: [Seq]/[Par All] take the worst branch, [Par Any]
          the best, [Par Quorum] needs a strict majority of healthy leaf
          appraisals; a checked [Layer] over a stale backend is
          [Compromised] with the body skipped *)
  leaves : leaf_result list;  (** executed appraisals, execution order *)
  ledger : Core.Ledger.t;
}

val run :
  ?drbg:Crypto.Drbg.t ->
  Core.Cloud.t ->
  vids:string array ->
  Phrase.t ->
  (outcome, string) result
(** Type-checks the phrase against the cloud's live topology, then executes
    it.  [drbg] supplies the per-appraisal customer nonces (fresh seed by
    default — pass the customer's own DRBG to reproduce its nonce
    stream). *)
