(** Fleet-level property fuzzing: random small {!Fleet.Driver} configs,
    checked against invariants the driver promises for {e every}
    configuration.

    - [fleet-conservation] — every offered request is accounted for:
      offered = served + shed (per class), and the shed breakdown has no
      negative class.
    - [fleet-determinism] — running the same config twice gives identical
      results (the driver's documented contract).
    - [fleet-audit-off] — with [audit_checkpoint = 0] every audit counter
      stays zero (the audit layer is pay-only-if-enabled).
    - [fleet-batch1-inert] — [batch_max = 1] executes no batched rounds
      regardless of the batch window. *)

type violation = { oracle : string; seed : int; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val campaign : seed0:int -> runs:int -> violation list
(** [check] over seeds [seed0 .. seed0+runs-1]. *)
