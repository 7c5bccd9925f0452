(** Shared experiment plumbing. *)

val fast_config : seed:int -> Core.Cloud.config
(** The paper's 3-server testbed shape, with 512-bit identity keys so the
    real cryptography runs fast.  Simulated attestation latencies come from
    the calibrated cost model, not from host CPU time, so small keys do not
    distort any reported number. *)

val two_pcpu_config : seed:int -> Core.Cloud.config
(** Variant with 2 pCPUs per server, for the co-residency experiments
    (victim and attacker share pCPU 0; helper vCPUs live on pCPU 1). *)

val solo_victim_time : Workloads.Spec.t -> Sim.Time.t
(** Completion time of a SPEC victim running alone on a pCPU (the
    normalisation baseline of Figures 6 and 7). *)

val bar : float -> string
(** Tiny ASCII bar for table printing (~1 char per 10%). *)

val scale_of_env : unit -> [ `Default | `Smoke ]
(** [`Smoke] when the environment variable [CLOUDMONATT_FLEET_SCALE] is
    ["smoke"] (the CI setting), else [`Default]: the scale every sweep
    experiment runs at when the caller does not pick one. *)

val section : string -> unit
(** Print an experiment header. *)

val timed : Fleet.Driver.config -> Fleet.Driver.result * float
(** {!Fleet.Driver.run} and the host wall-clock seconds it took. *)

val same_fingerprint : Fleet.Driver.result list -> bool
(** Every result has the first one's {!Fleet.Driver.fingerprint} ([true]
    on []): the domain-curve determinism gate of the fleet and monitor
    experiments. *)
