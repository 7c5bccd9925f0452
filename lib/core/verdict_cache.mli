(** Attestation verdict cache.

    Caches {e healthy} attestation reports per (VM, property) for a bounded
    TTL so that repeated attestations of an unchanged VM can be answered at
    the controller without a fresh measurement round trip (the "cached
    appraisal" of layered attestation systems; cf. Ozga et al.,
    arXiv:2304.00382).

    Semantics, deliberately conservative:

    - Only [Report.Healthy] verdicts are ever stored.  [Unknown] means the
      measurement path was unavailable and [Compromised] must always be
      re-observed, so neither is cacheable; observing one {e invalidates}
      any cached healthy verdict for that key.
    - Every VM lifecycle transition that can change what a measurement
      would observe (migrate, suspend, resume, terminate, image change)
      must call {!invalidate_vm}.  The controller does this.
    - A TTL of 0 disables the cache entirely: [find] misses without
      recording stats and [store] is a no-op. *)

type t

type stats = {
  hits : int;
  misses : int;
  stores : int;
  invalidations : int;  (** entries removed by explicit invalidation *)
}

val create : ?ttl:Sim.Time.t -> clock:(unit -> Sim.Time.t) -> unit -> t
(** [ttl] defaults to 0 (disabled). [clock] supplies the simulated time
    used for expiry. *)

val set_ttl : t -> Sim.Time.t -> unit
(** Lowering the TTL does not eagerly drop entries; they expire on lookup. *)

val enabled : t -> bool

val find : t -> vid:string -> property:Property.t -> Report.t option
(** Fresh (unexpired) cached healthy report, or [None].  Expired entries
    are dropped on the way.  Counts a hit or miss when enabled. *)

val store : t -> Report.t -> bool
(** [store t report] caches [report] under its (vid, property) key if the
    cache is enabled and the report is healthy; returns whether it was
    stored. *)

val invalidate : t -> vid:string -> property:Property.t -> bool
val invalidate_vm : t -> vid:string -> int
(** Drop every property entry for [vid]; returns how many were dropped. *)

val size : t -> int
val stats : t -> stats
