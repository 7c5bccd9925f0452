(** Timing ledger: accumulates labelled simulated costs, the way the paper
    uses Ceilometer to break wall-clock time into stages. *)

type t

val create : unit -> t
val add : t -> string -> Sim.Time.t -> unit
val total : t -> Sim.Time.t
val of_label : t -> string -> Sim.Time.t

val entries : t -> (string * Sim.Time.t) list
(** In insertion order; repeated labels are merged. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds all of [src]'s entries to [dst]. *)
