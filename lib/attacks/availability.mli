(** The CPU resource-availability attack of paper section 4.5.

    The attacker VM exploits the credit scheduler's boost mechanism with
    the tick-evasion pattern of Zhou et al.: its main vCPU computes between
    debit ticks and sleeps across each tick instant, so it is never charged
    credits; a helper vCPU on another pCPU wakes it with an IPI right after
    every tick, so it returns boosted and preempts the victim.  The victim,
    CPU-bound, absorbs every tick debit, goes credit-negative, and starves
    (>10x slowdown in paper Figure 6). *)

val main_program : ?tick:Sim.Time.t -> unit -> Hypervisor.Program.t
(** The vCPU that occupies the victim's pCPU; it goes to sleep 600 us
    before each tick. *)

val helper_program : ?tick:Sim.Time.t -> unit -> Hypervisor.Program.t
(** The vCPU that sends the wakeup IPIs, 200 us after each tick. *)

val attacker_vm : vid:string -> owner:string -> unit -> Hypervisor.Vm.t
(** A two-vCPU VM running main + helper.  Launch it with
    [~pins:[Some victim_pcpu; Some other_pcpu]]. *)

val pins : victim_pcpu:int -> helper_pcpu:int -> int option list
