(** VM lifecycle stages and their simulated durations.

    The paper's Figure 9 breaks VM launch into OpenStack's four stages plus
    CloudMonatt's new fifth stage (Attestation); Figure 11 measures the
    three remediation responses.  These functions compute the stage costs
    from the cost model, parameterized by image and flavor so the relative
    shapes (bigger image -> longer spawn; bigger RAM -> longer
    suspend/migrate) match the paper. *)

val scheduling_time : considered:int -> Sim.Time.t
(** Host selection: grows with the number of servers the filters examine
    (the oat-database capability checks). *)

val networking_time : unit -> Sim.Time.t
val mapping_time : Hypervisor.Flavor.t -> Sim.Time.t
val spawning_time : Hypervisor.Image.t -> Hypervisor.Flavor.t -> Sim.Time.t

val termination_time : unit -> Sim.Time.t
val suspension_time : Hypervisor.Flavor.t -> Sim.Time.t
val resume_time : Hypervisor.Flavor.t -> Sim.Time.t

val migration_transfer_time : Hypervisor.Flavor.t -> Sim.Time.t
(** Pre-copy transfer of the dirty fraction of RAM over the data-center
    network, plus fixed orchestration overhead. *)
