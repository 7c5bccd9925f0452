(** Continuous-monitoring experiment: epoch-scheduled re-attestation under
    incident storms.

    Sweeps the freshness budget (the re-attestation period) x storm
    scenario over a monitored fleet of ~10^4 VMs ({!Fleet.Monitor} wired
    into {!Fleet.Driver}), reporting the probe ledger (scheduled / served /
    missed / shed / deduplicated), the fraction-of-fleet-fresh SLO series
    and, for rack-compromise storms, the time-to-detect.  On top of the
    sweep, the headline scenario — tightest budget, rack compromise — runs
    once per domain count, gating that every run is byte-identical
    ({!Fleet.Driver.fingerprint}), exactly as the fleet experiment gates
    its unmonitored scenario.

    Two SLOs feed CI through {!clean}: a planted rack compromise must be
    detected within two re-attestation periods, and the fleet-fresh
    fraction must be nonzero at end of run. *)

type row = {
  budget : Sim.Time.t;  (** freshness budget: the re-attestation period *)
  storm : string;
      (** ["none"] | ["rack-compromise"] | ["image-cve"] | ["migration-wave"] *)
  domains : int;  (** OCaml domains the run executed on *)
  host_wall_s : float;  (** real elapsed time of this [Fleet.Driver.run] *)
  r : Fleet.Driver.result;
}

type sharded = {
  curve : row list;  (** the headline scenario at each domain count *)
  identical : bool;  (** all fingerprints equal — the determinism gate *)
}

type result = { seed : int; scale : string; rows : row list; sharded : sharded }

val scenario :
  seed:int ->
  [ `Default | `Smoke ] ->
  Fleet.Driver.config * Sim.Time.t * Sim.Time.t list * Sim.Time.t * int list
(** The monitored-fleet scenario at the given scale: the (unmonitored)
    base driver config, the scheduler tick, the budgets swept, the storm
    time, and the domain counts of the headline curve. *)

val run : ?seed:int -> ?scale:[ `Default | `Smoke ] -> unit -> result
(** [scale] defaults to [`Smoke] when the environment variable
    [CLOUDMONATT_FLEET_SCALE] is ["smoke"] (the CI setting), else
    [`Default]. *)

val clean : result -> bool
(** The gate: fingerprints identical across a domain curve of at least two
    points; the sweep plants a rack compromise and every such row detects
    it within {!detect_bound}; every row conserves its probe ledger
    ([scheduled = served + missed_periodic + missed_recheck + shed]) with
    no duplicated entry; and at least one row ends with a nonzero
    fleet-fresh fraction. *)

val print : result -> unit

val to_json : ?host:bool -> result -> Json.t
(** [host] (default true) includes the per-row [host_wall_s] and the
    sharded wall-clock curve — the only nondeterministic bytes in the
    document.  Pass [~host:false] to compare two runs for byte-identity. *)
