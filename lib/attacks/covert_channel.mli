(** The CPU-based cross-VM covert channel of paper section 4.4.

    The sender VM leaks bits to a co-resident receiver by occupying their
    shared pCPU for a long time (bit 1) or a short time (bit 0).  It sleeps
    between bursts so each transmission starts with a boosted wakeup that
    preempts the receiver, and keeps its duty cycle below its credit share
    so the boost never runs out.  The receiver runs tight compute chunks
    and reads bits from the gaps the sender's bursts punch into its own
    progress.

    Detection (section 4.4.2): the hypervisor's burst histogram for the
    sender shows two peaks — at the short and long burst lengths — where a
    benign CPU-bound VM shows a single peak at the 30 ms timeslice. *)

type params = {
  short_burst : Sim.Time.t;  (** CPU occupation encoding a 0 (default 5 ms) *)
  long_burst : Sim.Time.t;  (** CPU occupation encoding a 1 (default 20 ms) *)
  short_gap : Sim.Time.t;  (** idle time after a 0 (default 10 ms) *)
  long_gap : Sim.Time.t;  (** idle time after a 1 (default 30 ms) *)
  settle : Sim.Time.t;  (** initial idle period to accumulate credits *)
  chunk : Sim.Time.t;  (** receiver measurement granularity (default 0.5 ms) *)
}

val default_params : params

val sender_program : ?params:params -> bits:bool list -> unit -> Hypervisor.Program.t
(** Transmit [bits] once, then idle forever. *)

val receiver_program :
  ?params:params -> unit -> Hypervisor.Program.t * (unit -> Sim.Time.t list)
(** The receiver and an accessor for its chunk-completion timestamps. *)

val decode : ?params:params -> Sim.Time.t list -> bool list
(** Recover the transmitted bits from receiver timestamps. *)

val bit_error_rate : sent:bool list -> received:bool list -> float
(** Fraction of wrong or missing bits. *)

val transmission_time : ?params:params -> bits:int -> unit -> Sim.Time.t
(** Expected air time for [bits] random bits (for bandwidth estimates). *)

val random_bits : Sim.Prng.t -> int -> bool list

val receiver_vm :
  vid:string ->
  owner:string ->
  ?params:params ->
  unit ->
  Hypervisor.Vm.t * (unit -> Sim.Time.t list)
