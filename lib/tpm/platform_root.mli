(** Hardware vendor root of trust for CVM ({!Backend.kind} [Cvm_report])
    attestation.

    In the CVM threat model the cloud operator sits outside the TCB: a
    verifier trusts only this vendor root, which endorsed each machine's
    fused platform key at manufacture time.  Session report keys are in
    turn endorsed by the platform key, and the whole two-link chain rides
    the wire as one opaque string ({!encode_chain}) in the endorsement
    field of a measure response. *)

type t

val create : ?bits:int -> seed:string -> unit -> t
(** DRBG seeded from ["platform-root|" ^ seed]; independent of every other
    key stream in a simulation built from the same seed. *)

val public : t -> Crypto.Rsa.public

val report_key_payload : Crypto.Rsa.public -> string
(** Bytes a platform key signs to endorse a per-session report key. *)

val endorse_platform : t -> Crypto.Rsa.public -> string
(** The manufacture-time certificate over a machine's platform key. *)

val encode_chain : platform:Crypto.Rsa.public -> cert:string -> report_sig:string -> string
(** Encode (platform key, root cert, report-key signature) as the wire
    endorsement string. *)

val verify_chain : root:Crypto.Rsa.public -> endorsement:string -> key:Crypto.Rsa.public -> bool
(** Check both links: the vendor [root] endorsed the platform key inside
    [endorsement], and that platform key endorsed the session report
    [key].  Memoized — re-appraising the same chain is a hash lookup. *)
