(** One Attestation-Server shard: a bounded priority request queue feeding
    [capacity] concurrent measurement slots, with in-flight coalescing.

    Coalescing: concurrent requests for the same (VM, property) — queued or
    already being measured — attach to the pending measurement instead of
    consuming queue space or another service slot; when the measurement
    completes, every attached requester receives the same verdict.

    Backpressure: admission follows {!Pqueue} semantics — a full queue sheds
    the lowest-priority queued work first, and rejects the arrival itself
    only when everything queued is at least as important.  Shed requests
    complete immediately with {!verdict} [Shed].

    Batching: with [batch_max > 1] a free slot serves up to [batch_max]
    queued jobs as one Merkle-batched measurement round (one Trust-Module
    quote for the whole batch).  A slot with fewer than [batch_max] jobs
    waits up to [batch_window] for more to arrive; a queued
    Customer-priority request flushes the window immediately.  Batching
    composes with coalescing and shedding unchanged — both act at admission,
    before batch formation.  [batch_max = 1] (the default) serves one job
    per round and records no batches. *)

type verdict =
  | Done of Core.Report.status  (** measurement completed with this status *)
  | Shed  (** dropped by admission control before being measured *)

type t

val create :
  engine:Sim.Engine.t ->
  name:string ->
  ?capacity:int ->
  queue_depth:int ->
  service_time:(int -> Sim.Time.t) ->
  measure:(vid:string -> property:Core.Property.t -> Core.Report.status) ->
  metrics:Metrics.t ->
  ?batch_max:int ->
  ?batch_window:Sim.Time.t ->
  unit ->
  t
(** [capacity] (default 1) is the number of concurrent measurement rounds
    the AS sustains; [service_time n] samples the simulated duration of
    one round serving [n] jobs (always 1 with batching off); [measure]
    produces the verdict when a round completes.  Coalescing, measurement
    and shed counts are recorded into [metrics].

    [batch_max] (default 1 = off) bounds how many jobs one slot serves per
    round and [batch_window] (default 0) how long a partial batch waits for
    company. *)

val name : t -> string

val submit :
  t ->
  vid:string ->
  property:Core.Property.t ->
  priority:Pqueue.priority ->
  on_done:(verdict -> unit) ->
  unit
(** [on_done] fires exactly once: immediately (same engine step) for shed
    requests, at measurement completion otherwise. *)

val queue_gauge : t -> Sim.Stats.Gauge.t
(** Time-weighted queue-depth tracking (timestamps in simulated seconds). *)

val batches : t -> int
(** Batched rounds this cluster has started (0 with batching off). *)

val set_audit : t -> Audit.Log.t option -> unit
(** Attach (or detach) a verdict transparency log.  While attached, every
    completed measurement appends one canonical entry
    ["vid|property|status"] to the log — before the verdict is delivered
    to waiters — and counts a {!Metrics.record_audit_append}.  [None]
    (the default) is the pre-audit scheduler, bit for bit. *)

val audit : t -> Audit.Log.t option

