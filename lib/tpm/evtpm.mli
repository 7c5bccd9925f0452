(** The ephemeral vTPM: {!Backend.create} of kind [Evtpm].

    Kept for [perf/], which builds its devices through this module; the
    rest of the repository calls {!Backend.create}. *)

val create : ?key_bits:int -> seed:string -> unit -> Backend.t
