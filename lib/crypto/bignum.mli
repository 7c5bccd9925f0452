(** Arbitrary-precision natural numbers, built for RSA.

    Little-endian arrays of 26-bit limbs on the native int.  Provides the
    arithmetic RSA needs: multiplication, division, Montgomery modular
    exponentiation, modular inverse, Miller-Rabin primality and prime
    generation.  All values are non-negative. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int option
(** [None] when the value exceeds [max_int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_odd : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument when the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)].
    @raise Division_by_zero when [b] is zero. *)

val rem : t -> t -> t

val divmod_small : t -> int -> t * int
(** Division by a small positive int, in one pass. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit_length : t -> int

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Montgomery exponentiation (width-4 sliding window) for odd moduli;
    falls back to classic square-and-multiply with division for even
    moduli. *)

val mod_pow_mont : window:bool -> base:t -> exp:t -> modulus:t -> t
(** The Montgomery path on its own; [modulus] must be odd.
    [window:false] keeps bit-at-a-time square-and-multiply; the result is
    identical either way.  Exposed for the crypto micro-bench's window
    on/off ablation and the windowed-vs-generic equivalence tests. *)

val mod_pow_generic : base:t -> exp:t -> modulus:t -> t
(** Division-based square-and-multiply reference; any modulus. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [a{^-1} mod m] when [gcd a m = 1]. *)

val gcd : t -> t -> t

val of_bytes_be : string -> t
val to_bytes_be : ?width:int -> t -> string
(** Big-endian bytes; [width] left-pads with zeros (and must be large
    enough to hold the value). *)

val of_hex : string -> t
val to_hex : t -> string

val random_bits : Drbg.t -> int -> t
(** Uniform with exactly the given maximal bit width (top bit not forced). *)

val random_below : Drbg.t -> t -> t
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val is_probable_prime : ?rounds:int -> Drbg.t -> t -> bool
(** Miller-Rabin with random bases (plus small trial division). *)

val generate_prime : Drbg.t -> bits:int -> t
(** A random probable prime with the top two bits set. *)
