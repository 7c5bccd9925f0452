(** Property Interpretation Module (paper sections 4.1-4.5).

    Bridges the semantic gap in both directions: maps a requested security
    property P to the measurement list rM a cloud server can actually
    collect, and judges the returned measurements M against reference
    values or statistical criteria to decide whether P holds. *)

(** Sources the covert-channel property can be monitored from (paper
    4.4.3: the system can monitor several channel media, or switch
    randomly between them). *)
type covert_source = Cpu_bursts | Cache_misses

(** Detectors the runtime-integrity property can combine: the task-list
    diff of paper section 4.3, and an IMA-style binary whitelist check
    (the appraiser model of the paper's citation [33]). *)
type integrity_source = Task_diff | Ima_whitelist

(** Which detectors the appraiser runs.  The reference values and decision
    thresholds are constants of this module: golden values from the
    pristine platform and image definitions, an IMA whitelist of the
    pristine binaries, and the thresholds documented on each verdict. *)
type refs = {
  covert_sources : covert_source list;
      (** which media the covert-channel property checks; default
          [[Cpu_bursts]], the paper's concrete case study *)
  integrity_sources : integrity_source list;
      (** runtime-integrity detectors; default [[Task_diff]] *)
}

val default_refs : refs

val requests_for : refs -> Property.t -> Monitors.Measurement.request list
(** The P -> rM mapping (for [Covert_channel_free], one request per
    configured source). *)

val interpret :
  image_name:string option -> Property.t -> Monitors.Measurement.value list ->
  Report.status * string
(** [interpret ~image_name p values] returns the verdict and a short
    evidence string.  Measurements that do not match the property's
    expected shape yield [Unknown].  CPU availability is Compromised only
    when relative CPU usage (vtime/window) is below 25 % and more than
    70 % of the CPU time the VM wanted (run + steal) was stolen, so idle
    VMs are not flagged. *)

val histogram_verdict : int array -> Report.status * string
(** The covert-channel decision on a burst-interval histogram (Unknown
    below 20 bursts, Compromised when {!Sim.Stats.Two_means.bimodal}),
    exposed for tests and the detection-threshold ablation bench. *)

val cache_verdict : int array -> Report.status * string
(** The covert-channel decision on a per-window cache-miss series (Unknown
    below 20 windows): a bimodal split of window miss counts (quiet vs loud
    windows with wide separation) is the prime-probe signalling
    signature. *)

val ima_verdict : (string * string) list -> Report.status * string
(** Whitelist check over the IMA log: any binary whose hash is not the
    pristine one for its name is flagged. *)
