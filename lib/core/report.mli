(** Attestation reports — the "R" the customer finally receives. *)

type status =
  | Healthy
  | Compromised of string  (** reason, e.g. "bimodal CPU-interval distribution" *)
  | Unknown of string  (** could not be determined, e.g. too few samples *)

type t = {
  vid : string;
  property : Property.t;
  status : status;
  evidence : string;  (** short human-readable summary of the measurements *)
  produced_at : Sim.Time.t;
}

val is_healthy : t -> bool
val pp_status : Format.formatter -> status -> unit

val encode : Wire.Codec.Enc.t -> t -> unit
val decode : Wire.Codec.Dec.t -> t
