(** Figure 6: performance impact of CPU-availability attacks.

    Victim VMs run the SPEC-like programs (bzip2, hmmer, astar) while a
    co-resident attacker VM on the same pCPU runs: nothing (idle), each of
    the six cloud benchmarks, or the boost-abusing CPU-availability attack.
    Reports the victim's execution time relative to running alone.  Paper
    shape: IO-bound neighbours ~1x, CPU-bound neighbours ~2x (fair share),
    the attack >10x. *)

type cell = { victim : string; attacker : string; relative_time : float }

type result = { cells : cell list; attackers : string list; victims : string list }

val attacker_configs : string list
(** "idle", the six benchmarks, "CPU_avail" (the attack). *)

val run : unit -> result
val print : result -> unit
