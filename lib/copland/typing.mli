(** Typing judgment for protocol phrases.

    A phrase is well-typed against a topology when every appraised slot
    indexes a placed VM and a real property, every delegation names a real
    AS cluster and only covers slots that cluster actually appraises, no
    delegation nests inside another (one sub-appraiser per branch, as in
    the paper's per-cluster AS split), and every layered appraisal only
    covers VMs on the very host whose backend the layer checks. *)

type ctx = {
  vms : int;  (** appraisable VM slots [0, vms) *)
  clusters : int;  (** AS clusters [0, clusters) *)
  properties : int;  (** property indices [0, properties) *)
  cluster_of : int -> int;  (** slot -> AS cluster *)
  host_of : int -> int;  (** slot -> host index, negative = unplaced *)
}

type error =
  | Bad_slot of int
  | Bad_property of int
  | Bad_cluster of int
  | Unplaced of int
  | Nested_delegation
  | Cluster_mismatch of { slot : int; expected : int; actual : int }
  | Host_mismatch of { slot : int; layer_slot : int }

val check : ctx -> Phrase.t -> (unit, error) result
val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string
