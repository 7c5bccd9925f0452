(** Platform Configuration Registers.

    A bank of hash-chained registers, as in a TCG TPM.  Extending register
    [i] with measurement [m] sets it to [SHA-256(old || m)], so the final
    value commits to the whole ordered measurement sequence. *)

type t

val create : count:int -> t
(** All registers start as 32 zero bytes. *)

val count : t -> int

val read : t -> int -> string
(** @raise Invalid_argument on an out-of-range index. *)

val extend : t -> int -> string -> string
(** [extend t i m] extends register [i] with measurement [m] and returns the
    new value. *)

val reset : t -> int -> unit

val composite : t -> int list -> string
(** [composite t idxs] hashes the selected registers in index order — the
    value a TPM quote signs. *)

val snapshot : t -> string array

val load : t -> string array -> (unit, string) result
(** [load t values] overwrites the whole bank in place with a previously
    taken {!snapshot} — the restore half of vTPM state migration.  The bank
    object itself is preserved, so holders of the [t] observe the new
    values.  Fails (without touching the bank) when the snapshot has the
    wrong register count or a value of the wrong digest size. *)
