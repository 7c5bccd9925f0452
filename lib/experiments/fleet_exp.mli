(** Fleet-scale attestation throughput experiment.

    Sweeps offered arrival rate x AS shard count x verdict-cache TTL over a
    deterministic fleet (see {!Fleet.Driver}) and reports offered vs served
    throughput, latency percentiles, cache hit rate and shed counts — the
    baseline every scaling PR is measured against.

    On top of the sweep, runs the {e sharded scenario} — the epoch-barrier
    driver's headline configuration (10^5 VMs offered >10^3 req/s at the
    default scale) — once per domain count, gating that every run is
    byte-identical ({!Fleet.Driver.fingerprint}) and recording the host
    wall-clock curve that parallel execution buys. *)

type row = {
  rate : float;
  as_count : int;
  ttl : Sim.Time.t;
  domains : int;  (** OCaml domains the run executed on *)
  host_wall_s : float;  (** real elapsed time of this [Fleet.Driver.run] *)
  r : Fleet.Driver.result;
}

type sharded = {
  curve : row list;  (** the same scenario at each domain count *)
  identical : bool;  (** all fingerprints equal — the determinism gate *)
}

type result = { seed : int; scale : string; rows : row list; sharded : sharded }
(** [rows] includes the sharded curve rows (after the sweep and the
    heterogeneous-backend row), so artifact consumers see one uniform
    schema; [sharded] summarises the curve and its identity verdict. *)

val sharded_scenario :
  seed:int -> [ `Default | `Smoke ] -> Fleet.Driver.config * int list
(** The sharded scaling scenario at the given scale: its driver config and
    the domain counts it is swept over.  Exposed so the monitor experiment
    and the regression tests pin the very same scenario the committed
    BENCH_fleet.json fingerprints. *)

val run : ?seed:int -> ?scale:[ `Default | `Smoke ] -> unit -> result
(** [scale] defaults to [`Smoke] when the environment variable
    [CLOUDMONATT_FLEET_SCALE] is ["smoke"] (the CI setting), else
    [`Default]. *)

val clean : result -> bool
(** The gate: the domain curve has at least two points, starts at one
    domain, and its fingerprints are identical. *)

val print : result -> unit

val to_json : ?host:bool -> result -> Json.t
(** [host] (default true) includes the per-row [host_wall_s] and the
    sharded wall-clock curve — the only nondeterministic bytes in the
    document.  Pass [~host:false] to compare two runs for byte-identity. *)

val audit_fields : Fleet.Driver.result -> (string * Json.t) list
(** [[]] unless the run had auditing on, in which case one ["audit"]
    object (checkpoint interval and the four transparency counters) —
    shared by every row emitter so audit-off artifacts stay
    byte-identical to their pre-audit form. *)
