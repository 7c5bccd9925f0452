(** VMM Profile tool.

    Samples each domain's cumulative virtual run time on a fixed cadence
    (at VM-switch granularity in the paper — crucially {e without}
    intercepting the VM's execution, which is why runtime attestation shows
    no overhead in Figure 10).  A measurement query then reports the CPU
    time a VM consumed over a trailing window. *)

type t

val create : Hypervisor.Server.t -> t
(** Installs a recurring sampling event on the server's engine: one
    sample every 100 ms, 1200 samples of history (2 minutes). *)

val cpu_time : t -> vid:string -> window:Sim.Time.t -> Sim.Time.t option
(** Virtual run time consumed by the VM over the last [window]; clamps to
    available history.  [None] when the VM is not hosted here. *)

val cpu_usage : t -> vid:string -> window:Sim.Time.t -> (Sim.Time.t * Sim.Time.t) option
(** [(run, steal)] over the last [window]: virtual run time and
    runnable-but-not-scheduled time. *)

val sample_now : t -> unit
(** Force an immediate sample (used at measurement instants). *)
