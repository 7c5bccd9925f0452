(** Hexadecimal encoding of byte strings. *)

val encode : string -> string
(** Lower-case hex of each byte. *)

val decode : string -> string
(** Inverse of {!encode}.
    @raise Invalid_argument on odd length or non-hex characters. *)

val short : string -> string
(** First 8 hex digits, for log-friendly digests. *)
