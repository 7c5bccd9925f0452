(** The Trust Module (paper Fig. 2): one device, three kinds.

    Every kind has the same parts: a long-term identity keypair
    [{VKs, SKs}] whose private half never leaves the device, a session-key
    generator, a random-number generator, Trust Evidence Registers, a PCR
    bank and a signing engine.  The kinds differ only in how a session
    key's endorsement is anchored:
    - [Classic] — the paper's hardware TPM.  [SKs] signs
      {!endorsement_payload}; the Privacy CA holds [VKs].
    - [Evtpm] — the migratable ephemeral vTPM.  [SKs] signs
      {!evtpm_endorsement_payload}, which carries the binding epoch and,
      after a {!restore_state}, a stale marker.
    - [Cvm_report] — the CVM hardware-report device.  The identity key is
      a fused platform key endorsed by a {!Platform_root}; the endorsement
      is the whole chain (vendor root → platform key → session key), so a
      verifier needs only the vendor root.

    Only an e-vTPM's state can leave the device: {!save_state},
    {!restore_state} and {!rebind} refuse the other kinds, whose binding
    epoch stays 0. *)

type kind = Classic | Evtpm | Cvm_report

val all_kinds : kind list
val kind_to_string : kind -> string

type t

val create :
  ?key_bits:int ->
  ?num_registers:int ->
  ?num_pcrs:int ->
  ?root:Platform_root.t ->
  kind ->
  seed:string ->
  unit ->
  t
(** Defaults: 1024-bit keys, 64 evidence registers, 16 PCRs.  [seed] feeds
    the device's DRBG under a per-kind prefix (["trust-module|"],
    ["evtpm|"], ["cvm-device|"]), so two kinds built from one seed never
    share a key stream.  A CVM device needs the vendor [root], which
    endorses its platform key here, once.
    @raise Invalid_argument for a [Cvm_report] without [root]. *)

val classic : t -> t
val evtpm : t -> t
val cvm : t -> t
(** The identity: kept for [perf/], which wraps each {!Trust_module},
    {!Evtpm} and {!Cvm_device} device in them. *)

val kind : t -> kind

val identity_public : t -> Crypto.Rsa.public
(** [VKs], which the Privacy CA enrolls; a CVM's platform key. *)

val pcrs : t -> Pcr.t

val random_nonce : t -> string
(** 16 fresh bytes from the device RNG. *)

(** {2 Trust Evidence Registers} *)

val num_registers : t -> int

val read_registers : t -> int array
(** A copy of the full bank. *)

val write_register : t -> int -> int -> unit
(** @raise Invalid_argument on an out-of-range index. *)

val add_register : t -> int -> int -> unit
val clear_registers : t -> unit

(** {2 Per-attestation session keys} *)

type session = {
  public : Crypto.Rsa.public;  (** AVKs *)
  endorsement : string;  (** binds AVKs to this device's anchor *)
}

val begin_session : t -> session
(** Generate a fresh [{AVKs, ASKs}]; the secret half stays inside. *)

val sign_with_session : t -> session -> string -> string option
(** Sign a payload with the session's [ASKs].  [None] if the session is
    unknown (e.g. already ended). *)

val end_session : t -> session -> unit
(** Forget the session secret. *)

val quote_batch : t -> session -> root:string -> nonce:string -> string option
(** Sign one Merkle root covering a whole batch of measurement reports:
    one signature and one session keypair, whatever the batch size.
    [None] if the session is unknown. *)

val endorsement_payload : Crypto.Rsa.public -> string
(** The bytes a classic [SKs] signs to endorse a session key. *)

val evtpm_endorsement_payload : epoch:int -> stale:bool -> Crypto.Rsa.public -> string
(** The bytes an e-vTPM's [SKs] signs; a verifier reconstructing them
    learns the device's binding status. *)

val batch_quote_payload : root:string -> nonce:string -> string
(** The bytes {!quote_batch} signs. *)

(** {2 Identity-key operations} *)

val sign_identity : t -> string -> string
(** Sign with [SKs] itself — channel authentication only, never measurement
    payloads (which would link them to the server identity). *)

val decrypt_identity : t -> string -> string option
(** RSA-decrypt with [SKs] (secure-channel premaster secrets). *)

(** {2 e-vTPM state} *)

val binding_epoch : t -> int
(** Starts at 0; bumped only by {!rebind}. *)

val stale : t -> bool
(** True from {!restore_state} until the next {!rebind}. *)

val save_state : t -> (string, string) result
(** Serialize an e-vTPM (epoch, identity keypair, registers, PCR bank).
    The stale flag is not in the image: restoring is what makes state
    stale.  [Error] on the other kinds. *)

val restore_state : t -> string -> (unit, string) result
(** Replace an e-vTPM's state with a saved image, drop its open sessions
    and mark it stale.  Every field is checked first, and any failure
    leaves the device untouched: a malformed image, a geometry mismatch
    (key size, register count, PCR count), or an identity secret that does
    not parse or does not sign for the image's public key.  [Error] on the
    other kinds. *)

val rebind : t -> int
(** Re-registration: bump the binding epoch, clear staleness, return the
    new epoch.  The caller mirrors the new epoch to the Privacy CA.
    @raise Invalid_argument on a kind other than [Evtpm]. *)
