(** Ablation studies for the design choices DESIGN.md calls out.

    Not in the paper: these probe {e why} the reproduced results look the
    way they do —
    - how close the covert channel's two signalling durations can get
      before the bimodality detector loses it (and what bursty-but-benign
      workloads do to the false-positive rate);
    - how the availability attack degrades as the scheduler's debit tick
      shrinks (the attack lives in the gap between ticks);
    - how periodic-attestation frequency trades off against detection
      latency. *)

(** Detector sweep: separation of the two signalling durations vs verdict. *)
type detector_row = {
  long_burst_ms : float;  (** short burst fixed at 5 ms *)
  separation : float;  (** cluster separation the detector computed *)
  detected : bool;
  receiver_ber : float;  (** the channel still works even when undetected *)
}

val detector_sweep : ?seed:int -> unit -> detector_row list

(** False-positive probe: benign two-phase workloads vs the detector. *)
type benign_row = { label : string; detected : bool; evidence : string }

val benign_false_positives : ?seed:int -> unit -> benign_row list

(** Scheduler tick ablation: victim slowdown under the boost attack as the
    debit tick shrinks. *)
type tick_row = { tick_ms : float; slowdown : float }

val tick_sweep : ?seed:int -> unit -> tick_row list

(** Detection-latency vs attestation schedule. *)
type latency_row = {
  schedule : string;
  mean_detect_ms : float;  (** infection -> response, averaged over 4 trials *)
}

val detection_latency : ?seed:int -> unit -> latency_row list

val print_detector : detector_row list -> unit
val print_benign : benign_row list -> unit
val print_ticks : tick_row list -> unit
val print_latency : latency_row list -> unit
