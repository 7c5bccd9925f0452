(** Figure 7: measurements of CPU-availability vulnerability.

    Same co-residency scenarios as Figure 6, but now the VMM Profile Tool
    measures both VMs' relative CPU usage over a profiling window — the
    measurement the Attestation Server interprets for the
    [Cpu_availability] property.  Under benign CPU-bound contention both
    VMs sit near 50%; under the attack the victim collapses below the SLA
    floor and the interpreter flags it. *)

type row = {
  attacker : string;
  attacker_pct : float;  (** attacker relative CPU usage, percent *)
  victim_pct : float;
  victim_status : Core.Report.status;  (** availability verdict for the victim *)
}

type result = row list

val run : unit -> result
val print : result -> unit
