(** Monitor Kernel (paper Figure 8): dispatches measurement requests to the
    individual monitors, loads the results into the Trust Module's Trust
    Evidence Registers and returns the measurement values to be signed.

    Intrusive probes (VMI memory reads) pause the target VM briefly; the
    passive monitors (VMM profile, burst histogram) cost the VM nothing —
    the distinction behind the zero overhead of paper Figure 10. *)

type t

type error = [ `Unknown_vm of string | `Unsupported of Measurement.request ]

val create : Hypervisor.Server.t -> t
(** Builds the monitor suite (VMM profiler with its sampling cadence, VMI
    hooks, integrity unit) for this server. *)

val collect :
  t -> vid:string -> Measurement.request list -> (Measurement.value list, error) result
(** Collect measurements for one VM, in request order.  Burst histograms
    report the interval counts accumulated since they were last collected
    for this VM (the "detection period"). *)

val intrusion_pause : t -> Measurement.request list -> Sim.Time.t
(** Total simulated time the VM's execution is paused to serve these
    requests (zero for passive monitors). *)
