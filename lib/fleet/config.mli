(** The fleet scenario: everything a {!Driver.run} is a function of.

    {!Driver} re-exports this record and {!default_config}, so callers
    write [{ Fleet.Driver.default_config with Fleet.Driver.seed = 7 }]. *)

type config = {
  seed : int;
  servers : int;  (** cloud servers in the fleet *)
  vms : int;  (** VMs placed across them *)
  as_count : int;  (** AS shards (clusters) *)
  as_capacity : int;  (** concurrent measurement slots per AS *)
  queue_depth : int;  (** bounded request-queue depth per AS *)
  ttl : Sim.Time.t;  (** verdict-cache TTL; 0 disables caching *)
  rate_per_s : float;  (** offered attestation requests per simulated second *)
  duration : Sim.Time.t;  (** arrival window *)
  drain : Sim.Time.t;  (** extra engine time to let queues empty *)
  unhealthy_p : float;  (** fraction of measurements observing a compromise *)
  churn_period : Sim.Time.t;  (** VM migration interval (0 = no churn) *)
  hot_vms : int;  (** size of the frequently-attested VM subset *)
  hot_p : float;  (** probability an arrival targets the hot subset *)
  customer_p : float;  (** arrival mix: customer-triggered ... *)
  periodic_p : float;  (** ... periodic (remainder: re-checks) *)
  batch_max : int;  (** jobs per Merkle-batched round (1 = batching off) *)
  batch_window : Sim.Time.t;  (** how long a partial batch waits to fill *)
  audit_checkpoint : Sim.Time.t;
      (** transparency-log STH interval; 0 (the default) = audit off.  When
          on, every cluster appends each verdict to its own log, heads are
          signed every interval, and two gossiping auditors poll and
          cross-check every log; each served verdict additionally pays the
          receipt-verification latency. *)
  backends : Tpm.Backend.kind array;
      (** trust backend per AS cluster — cluster [i] runs
          [backends.(i mod Array.length backends)], so a heterogeneous
          fleet mixes backends by listing several kinds.  Each cluster's
          service time uses its backend's quote-signing (and, for CVM,
          chain-verification) cost terms. *)
  domains : int;
      (** OCaml domains executing the shards (clamped to the shard count).
          Purely an execution parameter: every field of the result is
          byte-identical at any value. *)
  epoch : Sim.Time.t;
      (** barrier interval: how much simulated time each shard advances
          between cross-shard message exchanges.  Affects when cross-shard
          requests are delivered (larger epochs delay them), so it is part
          of the simulated scenario — but not of the execution schedule. *)
  monitor : Monitor.config option;
      (** continuous re-attestation scheduler ({!Monitor}): every VM is
          re-attested before its verdict outlives the freshness budget,
          deduplicating against the verdict cache, with optional storm
          scenarios.  [None] (the default) is the unmonitored driver, byte
          for byte: same prng draws, same trace, same fingerprint. *)
}

val default_config : config
(** 200 servers, 2000 VMs, 1 AS, capacity 1, queue depth 16, cache off,
    8 req/s for 30 s, 5% unhealthy, 5 s churn, 64 hot VMs at p=0.8,
    mix 20/70/10, batching off, 1 domain, 50 ms epochs, monitor off. *)
