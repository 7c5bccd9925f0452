(** Per-run fleet metrics: offered vs. served load, end-to-end latency
    percentiles, cache effectiveness, coalescing, and shed counts by
    priority class.

    In the sharded driver each shard keeps its own [t] (sample reservoirs
    have bounded memory at million-VM scale) and the driver folds them with
    {!merge_into} in shard order, so the merged result is independent of
    how many domains executed the shards. *)

type t

val create : ?seed:int -> unit -> t
(** Each sample reservoir keeps {!Sim.Stats.Reservoir}'s default cap;
    [seed] (default 0) seeds the reservoirs' subsampling prngs. *)

val merge_into : t -> t -> unit
(** [merge_into acc t] folds [t] into [acc] ([t] unchanged): counters add,
    reservoirs merge per {!Sim.Stats.Reservoir.merge_into}.  Call in a
    fixed shard order for reproducible percentiles. *)

val record_offered : t -> unit
val record_served : t -> latency_ms:float -> unit
val record_cache_hit : t -> unit
(** Counts the hit only; the request is additionally [record_served]. *)

val record_coalesced : t -> unit
(** A request that joined an already-pending measurement. *)

val record_measurement : t -> unit
(** One actual measurement round executed by an AS. *)

val record_shed : t -> Pqueue.priority -> unit
val record_unhealthy : t -> unit

val record_batch : t -> size:int -> unit
(** One batched measurement round (a single Trust-Module quote covering
    [size] reports). *)

val offered : t -> int
val served : t -> int
val cache_hits : t -> int
val coalesced : t -> int
val measurements : t -> int
val unhealthy : t -> int
val shed : t -> Pqueue.priority -> int

val cache_hit_rate : t -> float
(** Hits over served requests (0 when nothing served). *)

val latency : t -> Sim.Stats.Reservoir.t
(** End-to-end latencies of served requests, in milliseconds. *)

val batches : t -> int
val mean_batch_size : t -> float
(** 0 when no batched round ran. *)

(** {2 Transparency-log counters}

    Follow the shed-counter pattern: recorded where the event happens
    (cluster appends, driver checkpoints, auditor proof checks) and all
    zero when the audit layer is off. *)

val record_audit_append : t -> unit
(** One verdict appended to a cluster's log. *)

val record_audit_checkpoint : t -> unit
(** One periodic signed tree head emitted. *)

val record_audit_proof : t -> unit
(** One inclusion/consistency proof served and verified. *)

val record_audit_equivocations : t -> int -> unit
(** [n] new pieces of auditor evidence (split view, fork, rollback). *)

val audit_appends : t -> int
val audit_checkpoints : t -> int
val audit_proofs : t -> int
val audit_equivocations : t -> int

(** {2 Continuous-monitoring counters}

    Same pattern as the audit counters: recorded where the scheduler acts
    and all zero when the monitor is off.  Every probe the scheduler
    submits ([record_mon_scheduled]) completes exactly once as served (by
    its deadline), missed (after it) or shed — the conservation law
    [scheduled = served + missed + shed] the test suite pins. *)

val record_mon_scheduled : t -> Pqueue.priority -> unit
(** One re-attestation probe submitted to a cluster. *)

val record_mon_served : t -> Pqueue.priority -> unit
(** A probe completed at or before its freshness deadline. *)

val record_mon_missed : t -> Pqueue.priority -> unit
(** A probe completed after its freshness deadline. *)

val record_mon_shed : t -> Pqueue.priority -> unit
(** A probe dropped by cluster admission control (retried next tick). *)

val record_mon_dedup : t -> unit
(** A due probe answered by a cached verdict still inside the budget. *)

val record_mon_tick : t -> fresh:int -> total:int -> unit
(** One scheduler tick observing [fresh] of [total] tracked VMs holding a
    verdict younger than the freshness budget. *)

val mon_missed : t -> Pqueue.priority -> int
val mon_scheduled_total : t -> int
val mon_served_total : t -> int
val mon_shed_total : t -> int
val mon_dedups : t -> int

val mon_ticks : t -> int
(** Scheduler ticks executed; merging takes the max (shards tick at the
    same absolute times, so per-shard tick counts coincide). *)

val mon_fresh : t -> Sim.Stats.Fraction_series.t
(** Fraction-of-fleet-fresh per tick; merges index-aligned across shards. *)
