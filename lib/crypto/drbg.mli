(** Deterministic random bit generator, ChaCha20 in counter mode.

    Plays the role of the hardware RNG inside the Trust Module and of every
    other cryptographic randomness source in the simulation.  Seeded
    explicitly so runs are reproducible. *)

type t

val create : seed:string -> t
(** Seed material of any length (hashed into the cipher key). *)

val random_bytes : t -> int -> string

val random_int : t -> int -> int
(** Uniform in [\[0, bound)]. *)

val nonce : t -> string
(** A fresh 16-byte nonce (the [N1], [N2], [N3] of the protocol). *)

val reseed : t -> string -> unit
(** Mix extra entropy into the state. *)
