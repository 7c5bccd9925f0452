(** Binary codec combinators.

    Every message that crosses the simulated network is serialized with
    these, so the Dolev-Yao adversary manipulates real bytes and tampering
    is caught by real MAC/signature checks, not by construction. *)

exception Error of string
(** Raised by decoders on malformed input. *)

(** Encoder: append typed fields to a growing buffer. *)
module Enc : sig
  type t

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  val int : t -> int -> unit
  (** Full 63-bit non-negative int (8 bytes on the wire). *)

  val bool : t -> bool -> unit

  val str : t -> string -> unit
  (** Length-prefixed byte string. *)

  val raw : t -> string -> unit
  (** Raw bytes without length prefix (use only for fixed-size fields). *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  val option : t -> ('a -> unit) -> 'a option -> unit
  val int_array : t -> int array -> unit
end

(** Decoder: consume typed fields from a string. *)
module Dec : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val int : t -> int
  val bool : t -> bool
  val str : t -> string
  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val int_array : t -> int array

  val expect_end : t -> unit
  (** @raise Error when trailing bytes remain. *)

  val remaining : t -> int
end

val encode : (Enc.t -> unit) -> string
(** [encode f] runs [f] on a fresh encoder and returns the bytes. *)

val decode : string -> (Dec.t -> 'a) -> 'a
(** [decode s f] decodes with [f] and checks that all input is consumed. *)

val decode_opt : string -> (Dec.t -> 'a) -> 'a option
(** Like {!decode} but returns [None] instead of raising {!Error}. *)
