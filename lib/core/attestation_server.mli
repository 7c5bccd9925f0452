(** Attestation Server (the "oat appraiser" + interpreter of Figure 8).

    Acts as attestation requester and appraiser: asked by the Cloud
    Controller to attest property P of VM Vid on server I, it opens a
    secure channel to that server's attestation client, sends the
    measurement list rM with a fresh nonce N3, verifies the signed response
    (privacy-CA certificate, session-key signature, quote Q3, nonce),
    interprets the measurements, and returns a report signed with its own
    identity key SKa together with the quote Q2.

    Every attestation also returns its simulated cost ledger, which the
    evaluation benches turn into the Figure 9/11 timings. *)

type t

type error =
  [ `Channel of Net.Secure_channel.error
  | `Server_refused of string
  | `Verification of Protocol.verify_error
  | `Uncertified_key
  | `No_platform_root ]

val pp_error : Format.formatter -> error -> unit

val create :
  net:Net.Network.t ->
  ca:Net.Ca.t ->
  pca:Privacy_ca.t ->
  refs:Interpret.refs ->
  seed:string ->
  ?key_bits:int ->
  ?name:string ->
  clock:(unit -> Sim.Time.t) ->
  vm_image:(string -> string option) ->
  backend_of:(string -> Tpm.Backend.kind) ->
  ?platform_root:Crypto.Rsa.public ->
  unit ->
  t
(** Registers nothing on the network: {!Cloud} serves {!request_handler}
    under [name] (default ["attestation-server"]), accepting only the
    controller.
    - [clock] stamps every report and history entry with its production
      time.
    - [vm_image] resolves Vid -> image name for the interpreter (the
      prototype reads the controller's nova database).
    - [backend_of] names the trust backend each cloud server runs.  It
      selects the trust anchor of the one trust gate both {!attest} and
      {!attest_batch} pass through: classic and vTPM endorsements go
      through the Privacy CA — the vTPM registry additionally enforcing
      the binding epoch, so a restored-but-not-rebound module yields a
      signed [Compromised] verdict rather than a certificate, once its
      session signature and N3 echo check out — and CVM report chains are
      checked against the hardware vendor root alone.
    - [platform_root] is that vendor root's verification key; without it
      no [Cvm_report] server can be appraised ([`No_platform_root]). *)

val name : t -> string
val identity : t -> Net.Secure_channel.Identity.t
val public_key : t -> Crypto.Rsa.public
val refs : t -> Interpret.refs

val enable_audit : t -> Audit.Log.t
(** Switch the verdict transparency log on (idempotent): every signed
    verdict — healthy, compromised, unknown or degraded — is appended to an
    append-only Merkle log keyed by this AS's identity, and service replies
    gain a trailing inclusion receipt the controller can verify.  Off by
    default; when off, replies are byte-identical to the pre-audit
    format. *)

val attest :
  t ->
  vid:string ->
  server:string ->
  property:Property.t ->
  nonce:string ->
  (Protocol.as_report, error) result * Ledger.t
(** One full measurement-collection + interpretation round.  The nonce is
    the controller's N2, echoed in the signed report.

    {!attest} and {!attest_batch} are one appraisal round that differs only
    in its wire format: the same trust gate (per backend, see
    {!create}'s [backend_of]), the same retry loop and the same signing.

    Rides the fault-tolerance stack through {!Hop}, and if the attestation
    path is still unavailable after {!Hop.attempts} from-scratch rounds
    (all transport retries exhausted, or an uncurable sequence desync) the
    call returns [Ok] of a signed report with status [Report.Unknown reason]
    rather than raising or hanging.  Failures that look like an active attack —
    authentication or verification failures, malformed replies, unknown
    hosts, a CVM host with no vendor root ([`No_platform_root]) — never
    degrade and stay hard errors. *)

val attest_batch :
  t ->
  server:string ->
  items:(string * Property.t) list ->
  nonce:string ->
  ( (string * Property.t * (Protocol.as_report, error) result) list,
    error )
  result
  * Ledger.t
(** Batched appraisal of many VMs on one cloud server: a single
    measurement round returns one Merkle-root signature covering every
    report, verified once; each report is then checked against its own
    O(log n) inclusion proof and gets an {e individual} signed verdict.
    A report whose proof fails is rejected alone ([Error] in its slot)
    while the rest of the batch stands.  A restored, not re-registered
    e-vTPM makes every item a signed [Compromised] stale-binding verdict.
    Batch-wide availability failures degrade every item to a signed
    [Unknown], like {!attest}; batch-wide hard errors fail the call. *)

(** {2 Introspection for tests and benches} *)

type history_entry = {
  at : Sim.Time.t;
  vid : string;
  property : Property.t;
  status : Report.status;
}

val history : t -> history_entry list
(** All appraisals, oldest first (the "oat database"). *)

val attestations_done : t -> int

val degraded_count : t -> int
(** How many attestations ended in a degraded [Unknown] verdict because the
    network stayed unavailable through every retry. *)

(** {2 Network service} *)

val request_handler : t -> peer:string -> string -> string
(** The on-request function for the AS's secure channel: decodes a
    {!Protocol.as_request} (or a {!Protocol.batch_as_request}, recognised
    by its wire magic), runs {!attest} / {!attest_batch} and encodes the
    reply (report(s) + cost ledger entries, so the controller can account
    end-to-end time). *)

val decode_service_reply :
  string ->
  ( Protocol.as_report * (string * Sim.Time.t) list * Audit.Receipt.t option,
    string )
  result
(** Parse a {!request_handler} reply on the controller side.  The receipt
    is [Some] exactly when the AS has auditing enabled. *)

val decode_batch_service_reply :
  string ->
  ( (Protocol.as_report, string) result list
    * (string * Sim.Time.t) list
    * Audit.Receipt.t list,
    string )
  result
(** Parse a batched {!request_handler} reply: one [Ok report] or
    [Error reason] per requested item, in request order, plus the shared
    cost ledger.  With auditing on, the receipt list pairs with the [Ok]
    reports in order; with auditing off it is empty. *)
