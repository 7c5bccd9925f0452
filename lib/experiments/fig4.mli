(** Figure 4: cross-VM covert information leakage.

    A sender VM and receiver VM share a pCPU; the sender encodes a random
    bit string as long/short CPU bursts.  Reproduces the paper's trace of
    sender CPU-usage intervals over time, and additionally reports the
    receiver's decoding accuracy and the channel bandwidth. *)

type result = {
  bits_sent : bool list;
  bits_received : bool list;
  bit_error_rate : float;
  bandwidth_bps : float;
  trace : (float * float) list;  (** (time ms, sender CPU interval ms) *)
}

val run : ?seed:int -> unit -> result

val print : result -> unit
