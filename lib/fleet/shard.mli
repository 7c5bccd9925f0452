(** One AS cluster's shard of the fleet driver.

    A shard owns its cluster, its engine (clock and event queue), its
    verdict-cache partition, its metrics, its five prng streams, its audit
    log and the VMs whose {e initial} placement was this cluster (their
    {e home}).  The home shard generates a VM's arrivals and runs its
    lifecycle churn for the whole run; the shard of the VM's {e current}
    host serves its requests and caches its verdicts.

    Every handler lives here, and a shard reaches another shard only by a
    {!Msg.t}: a payload meant for state another shard owns goes into the
    outbox that {!advance} returns, and {!deliver} applies it on the
    destination exactly as the sender would have applied it locally.  So
    any assignment of shards to domains runs the same per-shard event
    sequences. *)

type t

val create :
  Config.config ->
  Topology.t ->
  root:Sim.Prng.t ->
  audit_key:Crypto.Rsa.secret option ->
  int ->
  t
(** [create config topology ~root ~audit_key i] builds shard [i] and arms
    its processes: the audit checkpoints (when [audit_key] is given), the
    monitor's entries and ticks, the arrivals and the churn.  It splits
    its five streams (arrival, pick, service, verdict, churn) from [root],
    so shards must be created in index order.  [topology] is shared, but
    a shard reads and writes only its home VMs' placement. *)

val advance : t -> until:Sim.Time.t -> Msg.t list
(** Run the shard's engine through [until] and hand back the messages it
    sent meanwhile, oldest first. *)

val deliver : t -> Msg.t -> unit
(** Schedule one message at the shard's clock, which the epoch loop has
    just advanced to the barrier. *)

val pending : t -> int
(** Events still scheduled on the shard's engine. *)

type result = {
  metrics : Metrics.t;
  backend : Tpm.Backend.kind;
  served : int;  (** cluster-served requests *)
  invalidations : int;  (** verdict-cache invalidations *)
  migrations : int;  (** churn events of home VMs *)
  storm_affected : int array;  (** per storm: VMs marked, forced or migrated *)
  storm_detected : Sim.Time.t option array;  (** per storm: first Compromised seen *)
  mon_vids : string list;  (** VMs the monitor tracks here at the end *)
  mon_double_adds : int;  (** double-tracking events on this shard *)
  trace : string;  (** raw SHA-256 of the shard's event trace *)
  max_queue_depth : int;
  mean_queue_depth : float;  (** time-weighted, up to the shard's clock *)
}

val result : t -> result
(** The shard's tallies for the merge.  It finalizes the trace digest, so
    call it once, after the last {!advance}. *)

(** {2 Cost model}

    Anchored to [lib/core]'s calibrated ledger constants ({!Core.Costs});
    {!Driver} re-exports these for calibration display. *)

val cold_attest_ms : float
val cache_hit_ms : float
val batch_attest_ms : int -> float
val audit_verdict_ms : size:int -> float
