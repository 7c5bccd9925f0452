(** Privacy Certificate Authority.

    Certifies per-attestation session keys ([AVKs]) without revealing which
    cloud server they came from: the endorsement signature is checked
    against the registry of enrolled server identity keys ([VKs]), but the
    issued certificate carries only an anonymous subject.  This is what
    keeps an attestation report from helping an attacker locate the VM's
    host (paper section 3.4.2). *)

type t

val create : seed:string -> ?bits:int -> unit -> t

val public : t -> Crypto.Rsa.public
(** The pCA verification key, trusted by the Attestation Server. *)

val enroll_server : t -> name:string -> Crypto.Rsa.public -> unit
(** Register a secure cloud server's identity key [VKs] (done when the
    server is deployed in the data center). *)

val enrolled : t -> string list

(** {2 Migratable vTPM registry}

    Ephemeral vTPMs enroll with an explicit {e binding epoch}.  The CA only
    certifies session keys endorsed fresh at the registered epoch; an
    endorsement carrying the stale marker, or minted at an older epoch, is
    rejected as [`Stale_binding] — the signal that restored state was not
    re-registered. *)

val enroll_evtpm : t -> name:string -> Crypto.Rsa.public -> epoch:int -> unit

val rebind_evtpm : t -> name:string -> Crypto.Rsa.public -> epoch:int -> unit
(** Re-registration after a restore: records the vTPM's new binding epoch
    (and identity key, which survives migration unchanged). *)

val anonymous_subject : string
(** Subject string used on every attestation-key certificate. *)

val certify_attestation_key :
  t ->
  key:Crypto.Rsa.public ->
  endorsement:string ->
  (Net.Ca.cert, [ `Unknown_server ]) result
(** Verify that [endorsement] is a valid signature over [key] by {e some}
    enrolled server, and issue an anonymous certificate for [key]. *)

val certify_evtpm_key :
  t ->
  key:Crypto.Rsa.public ->
  endorsement:string ->
  (Net.Ca.cert, [ `Unknown_server | `Stale_binding ]) result
(** Like {!certify_attestation_key} for the vTPM registry.  Only an
    endorsement minted fresh at the registered binding epoch certifies;
    stale-marked or old-epoch endorsements from a known vTPM return
    [`Stale_binding]. *)

val check_certificate : pca:Crypto.Rsa.public -> Net.Ca.cert -> key:Crypto.Rsa.public -> bool
(** What the Attestation Server checks: a valid pCA signature, the
    anonymous subject, and that the certified key matches [key]. *)
