(** Certificate authority.

    Binds names to RSA public keys with a signature, playing two roles from
    the paper: the ordinary PKI that SSL-style channel authentication needs,
    and (in [lib/core]) the privacy CA that certifies per-attestation session
    keys ([AVKs]) without revealing which server they belong to. *)

type cert = {
  subject : string;
  pubkey : Crypto.Rsa.public;
  signature : string;  (** CA signature over [payload subject pubkey] *)
}

type t

val create : seed:string -> ?bits:int -> name:string -> unit -> t
val public : t -> Crypto.Rsa.public

val issue : t -> subject:string -> Crypto.Rsa.public -> cert

val verify : ca:Crypto.Rsa.public -> cert -> bool
(** Check the CA signature; callers must still check [subject] is who they
    expect to be talking to. *)

val encode : Wire.Codec.Enc.t -> cert -> unit
val decode : Wire.Codec.Dec.t -> cert
(** @raise Wire.Codec.Error on malformed input. *)
