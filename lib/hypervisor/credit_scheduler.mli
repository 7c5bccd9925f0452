(** Xen-like credit scheduler, event-driven on the simulation engine.

    Faithful to the mechanisms both paper attacks exploit:
    - vCPUs hold {e credits}, distributed every accounting period (30 ms)
      in proportion to their domain's weight, and are debited 100 credits
      at each 10 ms tick {e only if running at the tick instant} — so a
      vCPU that runs in short bursts and sleeps across ticks evades
      debiting (the scheduler vulnerability of Zhou et al. that the
      paper's CPU-availability attack builds on);
    - priorities are BOOST > UNDER (credits > 0) > OVER; a vCPU that wakes
      up with credits is boosted and preempts lower-priority vCPUs — the
      IPI ping-pong attack and the covert-channel sender both abuse this;
    - the scheduling timeslice is 30 ms, so a solo CPU-bound domain shows
      the 30 ms default burst interval of paper section 4.4.2.

    The scheduler also implements the measurement hooks the Monitor Module
    needs: per-domain cumulative virtual run time (VMM Profile Tool) and
    per-domain CPU-burst histograms with 1 ms bins (Trust Evidence
    Registers). *)

type t
type domain
type vcpu

val create : ?tick:Sim.Time.t -> engine:Sim.Engine.t -> pcpus:int -> unit -> t
(** Also installs the recurring debit-tick (default 10 ms) and accounting
    events.  Everything else is Xen's default: 30 ms timeslice and
    accounting period, 100 credits debited per tick, a 600-credit hoarding
    cap, 30 histogram bins of 1 ms. *)

(** {2 Domains and vCPUs} *)

val add_domain : t -> name:string -> weight:int -> domain
val domains : t -> domain list

val add_vcpu : t -> domain -> ?pin:int -> Program.t -> vcpu
(** Create a vCPU running [program], pinned to pCPU [pin] (default:
    round-robin).  It becomes runnable immediately. *)

val pause_domain : t -> domain -> unit
(** Deschedule all vCPUs and freeze timers (VM suspension). *)

val resume_domain : t -> domain -> unit

val remove_domain : t -> domain -> unit
(** Destroy the domain's vCPUs. *)

val is_paused : domain -> bool

(** {2 Measurement hooks} *)

val domain_runtime : t -> domain -> Sim.Time.t
(** Cumulative virtual run time, including the in-progress burst. *)

val domain_waittime : t -> domain -> Sim.Time.t
(** Cumulative "steal" time: how long the domain's vCPUs have been
    runnable but not running.  High steal with low runtime is the
    signature of an availability attack; low steal with low runtime is
    just an idle VM. *)

val burst_counts : domain -> int array
(** The burst-interval histogram: bin [i] counts completed bursts of
    duration in [(i, i+1]] ms (last bin clamps). *)

val clear_burst_counts : domain -> unit

val set_burst_trace : domain -> bool -> unit
(** When enabled, completed bursts are also kept as [(start, length)]
    pairs, oldest first — the raw series of paper Figure 4. *)

val burst_trace : domain -> (Sim.Time.t * Sim.Time.t) list

(** {2 Invariant checks (used by tests)} *)

val total_runtime : t -> Sim.Time.t
(** Sum of all domains' runtimes; never exceeds [pcpus * elapsed]. *)

val busy_time : t -> Sim.Time.t
(** Total pCPU busy time (equals {!total_runtime}). *)
