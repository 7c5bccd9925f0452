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

val sender_program :
  ?long_burst:Sim.Time.t -> bits:bool list -> unit -> Hypervisor.Program.t
(** Transmit [bits] once, then idle forever.  After a 100 ms settle period,
    a 0 is a 5 ms burst followed by 10 ms idle, a 1 a [long_burst]
    (default 20 ms) burst followed by 30 ms idle. *)

val receiver_program : unit -> Hypervisor.Program.t * (unit -> Sim.Time.t list)
(** The receiver, computing in 0.5 ms chunks, and an accessor for its
    chunk-completion timestamps. *)

val decode : ?long_burst:Sim.Time.t -> Sim.Time.t list -> bool list
(** Recover the transmitted bits from receiver timestamps; [long_burst]
    must match the sender's. *)

val bit_error_rate : sent:bool list -> received:bool list -> float
(** Fraction of wrong or missing bits. *)

val transmission_time : bits:int -> Sim.Time.t
(** Expected air time for [bits] random bits at the default burst lengths
    (for bandwidth estimates). *)

val random_bits : Sim.Prng.t -> int -> bool list

val receiver_vm : vid:string -> owner:string -> unit -> Hypervisor.Vm.t * (unit -> Sim.Time.t list)
