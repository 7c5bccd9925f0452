(** Fleet-scale attestation scenario runner, sharded by AS cluster.

    Config -> shards -> epoch loop -> merge: builds a deterministic
    {!Topology} and one {!Shard} per AS cluster, advances every shard to
    each epoch barrier, delivers the {!Msg.t}s they sent in a total order,
    and folds the per-shard results.  A VM's requests are generated on its
    {e home} shard (the cluster of its initial placement) and served by
    the shard of its current host.  Shards run concurrently on up to
    [domains] OCaml domains.

    Determinism is the design invariant: shards share no mutable state
    within an epoch, every shard consumes only its own prng streams, and
    the barrier merge imposes the total order (send time, source shard,
    send seq) on cross-shard messages — so the result (every counter,
    percentile and the trace digest) is byte-identical whether the shards
    run on one domain or eight.

    The per-request cost model is derived from [lib/core]'s calibrated
    ledger constants ({!Core.Costs}), so fleet numbers stay commensurable
    with the single-VM attestation path's ledgers. *)

include module type of struct
  include Config
end
(** The scenario record {!Config.config} and {!Config.default_config}. *)

type storm_outcome = {
  storm : string;  (** "rack-compromise" | "image-cve" | "migration-wave" *)
  at : Sim.Time.t;  (** configured storm time *)
  affected : int;  (** VMs marked compromised / forced / migrated *)
  detected_at : Sim.Time.t option;
      (** first measurement observing a planted compromise
          (rack-compromise storms; [None] for other kinds or undetected) *)
}

type result = {
  config : config;
  offered : int;
  served : int;
  shed_customer : int;
  shed_periodic : int;
  shed_recheck : int;
  coalesced : int;
  measurements : int;  (** actual AS measurement rounds *)
  unhealthy : int;
  cache_hits : int;
  cache_hit_rate : float;
  invalidations : int;
  migrations : int;
  offered_rps : float;
  served_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_queue_depth : int;
  mean_queue_depth : float;  (** time-weighted, averaged over shards *)
  batches : int;  (** batched rounds executed (0 with batching off) *)
  mean_batch_size : float;  (** mean jobs per batched round (0 when none) *)
  audit_appends : int;  (** verdicts committed to transparency logs *)
  audit_checkpoints : int;  (** periodic signed tree heads emitted *)
  audit_proofs : int;  (** inclusion + consistency proofs served/verified *)
  audit_equivocations : int;  (** auditor evidence records (0 = honest run) *)
  served_by_backend : (string * int) list;
      (** cluster-served requests per backend kind present in the config
          (cache hits never reach a cluster and are not attributed) *)
  epochs : int;  (** barrier iterations the run took (drain included) *)
  verify_memo : (int * int) array;
      (** per-domain (hits, misses) of the domain-local RSA verify memo
          ({!Crypto.Rsa.Memo}), in pool-slot order; the memos are cleared
          at the start of the run, so the counters cover this run alone.
          Only the audit path does real RSA here, so all zeros with audit
          off.  How the totals split across slots depends on [domains], so
          this field is excluded from {!fingerprint}. *)
  mon_scheduled : int;
      (** re-attestation probes submitted to clusters.  The conservation
          law [mon_scheduled = mon_served + missed + mon_shed] holds
          exactly once the run drains. *)
  mon_served : int;  (** probes completed at or before their deadline *)
  mon_missed_periodic : int;  (** periodic-class probes completed late *)
  mon_missed_recheck : int;  (** recheck-class probes completed late *)
  mon_shed : int;  (** probes dropped by admission control (retried) *)
  mon_dedups : int;  (** due probes answered by a budget-fresh cached verdict *)
  mon_ticks : int;  (** scheduler ticks (same count on every shard) *)
  mon_entries : int;
      (** distinct VMs tracked across all shards at end of run; equals
          [config.vms] when rescheduling was exactly-once *)
  mon_entry_dups : int;
      (** double-tracking events: a VM tracked on two shards at once or
          double-added on one — 0 unless rescheduling broke *)
  mon_fresh_min : float;  (** min over ticks of fraction-of-fleet-fresh *)
  mon_fresh_mean : float;
  mon_fresh_final : float;  (** fraction fresh at the last tick *)
  mon_storms : storm_outcome list;  (** per configured storm, in order *)
  trace_digest : string;
      (** hex SHA-256 over the per-shard event traces (arrivals, serves,
          sheds, migrations, every cross-shard message), folded in shard
          order.  Two runs with equal digests executed the same per-shard
          event sequences — the strongest cheap witness that a domains=N
          run replayed the domains=1 run exactly. *)
}

val run : config -> result
(** Deterministic: equal configs give equal results — including equal
    [trace_digest] across different [domains] values.  Raises
    [Invalid_argument] naming [backends] when that array is empty. *)

val fingerprint : result -> string
(** Hex SHA-256 over every result field except [config] and
    [verify_memo], so runs that differ only in [config.domains] can be
    compared for byte-identity with one string equality.  Monitor fields
    are hashed only for monitored runs, so an unmonitored run's
    fingerprint is byte-identical to the pre-monitor driver's. *)

val cold_attest_ms : float
(** Modelled end-to-end latency of an uncontended cold attestation (mean
    service + controller overhead), for calibration display. *)

val cache_hit_ms : float
(** Modelled latency of a verdict-cache hit. *)

val batch_attest_ms : int -> float
(** Modelled end-to-end latency of an uncontended n-report batched round
    (whole-batch service + controller overhead); divide by n for the
    amortized per-report cost.  [batch_attest_ms 1 = cold_attest_ms]. *)

val audit_verdict_ms : size:int -> float
(** Modelled extra latency auditing adds to one served verdict when the
    log holds [size] entries: append, head signature, inclusion proof and
    receipt verification.  Grows O(log size). *)

