(** The classic Trust Module: {!Backend.create} of kind [Classic].

    Kept for [perf/], which builds its devices through this module; the
    rest of the repository calls {!Backend.create}. *)

val create :
  ?key_bits:int -> ?num_registers:int -> ?num_pcrs:int -> seed:string -> unit -> Backend.t
