(** ChaCha20 stream cipher (RFC 8439), the symmetric cipher protecting
    secure-channel payloads ([Kx], [Ky], [Kz] in the attestation protocol). *)

val block : key:string -> nonce:string -> counter:int -> string
(** One 64-byte keystream block. *)

val xor : key:string -> nonce:string -> ?counter:int -> string -> string
(** Encrypt or decrypt (the operation is its own inverse). *)
