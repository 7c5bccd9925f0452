(** Deterministic scenario replay: executes an {!Op.scenario} against a
    fresh {!Core.Cloud} under the discrete-event engine, feeds every
    observation to the {!Oracle} library, and folds a determinism digest
    over the trace (same seed, same ops => same digest, bit for bit).

    The engine advances 1 ms before every op, so a verdict produced by an
    earlier op is strictly older than the current op's start time — that
    timestamp gap is how the oracles tell a cache-served verdict from a
    fresh measurement without trusting the cache's own counters. *)

(** Planted bugs for oracle validation (mutation testing of the fuzzer
    itself): the two [Skip_invalidate_*] mutants re-introduce a stale-cache
    hazard by re-storing pre-transition cache entries right after the
    transition the controller just invalidated; [Rebind_on_restore] makes
    the management plane silently re-register restored vTPM state with the
    Privacy CA, so stale-state quotes come back Healthy — the
    [vtpm-stale-binding] oracle must convict it; [Lazy_monitor] makes the
    continuous monitor wake only at op boundaries instead of chunking its
    catch-up through [Advance], so one long quiet stretch leaves every
    verdict stale — the [monitor-freshness] oracle must convict it. *)
type bug =
  | No_bug
  | Skip_invalidate_on_migrate
  | Skip_invalidate_on_resume
  | Rebind_on_restore
  | Lazy_monitor

type outcome = {
  scenario : Op.scenario;
  observations : Oracle.op_obs list;  (** in op order *)
  violations : Oracle.violation list;  (** oldest first *)
  digest : string;  (** SHA-256 over the per-op trace summaries *)
  vms_launched : int;
  attests_run : int;
      (** individual attestation results delivered, monitor probes included *)
}

val run : ?bug:bug -> Op.scenario -> outcome
(** Build the cloud, then step the ops in order; each step runs one op and
    seals its {!Oracle.op_obs} into the oracles and the digest.  An op that
    raises stops the replay: the ops before it stay sealed, and
    [violations] ends with an [exception] violation at that op's index
    whose detail is the printed exception.  This is the one place a
    raising replay is reported; {!Shrink} and {!Campaign} treat it like
    any other oracle. *)
