(** Prime-probe cache covert channel.

    A second covert-channel medium (paper section 4.4.3: "other types of
    covert channels can also be monitored"): sender and receiver VMs share
    the server's last-level cache, and need not share a pCPU.  Time is
    divided into rounds (default 10 ms, matching the cache monitor's
    accounting window).  The receiver keeps a group of cache sets primed
    with its own lines; in each round the sender either thrashes those sets
    (bit 1) or stays quiet (bit 0); at the end of the round the receiver
    probes: many misses mean its lines were evicted — bit 1.

    Detection signature: both parties' per-window cache-miss counts
    alternate between quiet and loud with a wide gap — the
    [Cache_misses] source of the [Covert_channel_free] property. *)

type params = {
  round : Sim.Time.t;  (** signalling round, default 10 ms *)
  first_set : int;  (** first cache set of the target group *)
  group : int;  (** number of sets in the group, default 16 *)
  start_round : int;  (** rounds to wait before transmitting, default 4 *)
}

val sender_program :
  Hypervisor.Cache.t ->
  owner:string ->
  ?params:params ->
  bits:bool list ->
  unit ->
  Hypervisor.Program.t
(** Transmit [bits], one per round, starting at [start_round]; then idle. *)

val receiver_program :
  Hypervisor.Cache.t ->
  owner:string ->
  ?params:params ->
  unit ->
  Hypervisor.Program.t * (unit -> (int * bool) list)
(** The receiver and an accessor for its decoded (round, bit) stream. *)

val received_bits : ?params:params -> count:int -> (int * bool) list -> bool list
(** Extract the [count] transmitted bits from the receiver's stream. *)
