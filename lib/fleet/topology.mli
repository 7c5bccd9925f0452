(** Fleet topology: hundreds of cloud servers running thousands of VMs,
    partitioned into Attestation-Server clusters (paper section 3.2.3: "There
    can be different Attestation Servers for different clusters, enabling
    scalability").

    The whole layout is generated deterministically from a seed, so a fleet
    run is reproducible bit-for-bit.  The [routing] table is the controller's
    host -> AS-cluster map; VM placement can change at runtime ({!migrate}),
    modelling the lifecycle churn that invalidates cached verdicts.

    Each VM also records its [home] cluster — the cluster of its initial
    placement — which the sharded driver uses as the VM's owning shard:
    requests for a VM are generated and accounted on its home shard for the
    whole run, even after migrations move its serving cluster elsewhere.
    Home assignment is placement-derived, so the shard partition is a pure
    function of the seed and is identical however many domains execute it. *)

type server = { name : string; cluster : int }

type vm = {
  idx : int;  (** position in {!vms}; [idx < hot] marks the hot set *)
  vid : string;
  owner : string;
  home : int;  (** cluster of initial placement; never changes *)
  mutable host : string;  (** current placement; changes on {!migrate} *)
}

type t

val make : seed:int -> servers:int -> vms:int -> as_count:int -> t
(** Servers are named [srv-0001].. and assigned to the [as_count] clusters
    round-robin; VMs are placed uniformly at random (from [seed]). *)

val as_count : t -> int
val vms : t -> vm array

val cluster_of_vm : t -> vm -> int
(** Routing-table lookup: which AS cluster serves this VM's host.  Unknown
    hosts route to cluster 0, like {!Core.Controller}'s fallback. *)

val home_slice : t -> int -> vm array
(** [home_slice t c] holds the VMs with [home = c], in [idx] order; the
    slices partition the fleet.  A slice may be empty. *)

val pick_among :
  Sim.Prng.t -> pool:vm array -> hot:vm array -> hot_p:float -> vm
(** Sample a VM for an arriving attestation request from [pool]: with
    probability [hot_p] it comes from the [hot] subset (when non-empty),
    modelling the skewed access pattern of monitored tenants; otherwise
    uniform over [pool].  [pool] must be non-empty. *)

val migrate : t -> Sim.Prng.t -> vm -> string
(** Re-place [vm] on a different random server; returns the new host. *)
