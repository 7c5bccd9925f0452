(** Scenario algebra for the deterministic fuzzer.

    A scenario is a seed plus a list of abstract operations over a cloud:
    lifecycle transitions, attestations, configuration toggles, fault
    adversaries and attack injection.  Operations reference VMs by {e launch
    slot} (the index of the [Launch] that created them, modulo the number of
    VMs launched so far) and images/properties by index into fixed pools, so
    a scenario stays replayable after the shrinker removes operations.

    Every scenario has an exact one-line textual form ([to_string] /
    [of_string] round-trip), so a failing run prints a repro line that can be
    pasted into a pinned regression test. *)

type fault =
  | Drop_nth of int  (** drop every n-th wire message *)
  | Garble_nth of int  (** flip a byte of every n-th message *)
  | Lossy of int * int  (** (drop %, garble %) per message, PRNG-driven *)
  | Blackout  (** total partition *)

type op =
  | Launch of { image : int; monitored : bool; workload : int }
      (** boot a VM from image pool slot [image]; monitored VMs request
          security properties and go through startup attestation *)
  | Terminate of int  (** VM slot *)
  | Suspend of int
  | Resume of int
  | Migrate of int
  | Attest of int * int  (** (VM slot, property index) *)
  | Attest_many of (int * int) list
      (** one [Controller.attest_many] call over (VM slot, property) pairs *)
  | Set_cache_ttl of int  (** verdict-cache TTL in ms; 0 disables *)
  | Set_batching of bool
  | Enable_audit  (** one-way: transparency log + receipt verification on *)
  | Set_fault of fault
  | Clear_fault
  | Advance of int  (** run the engine forward by this many ms *)
  | Infect of int  (** hide malware in the VM at this slot *)
  | Corrupt_image of int  (** tamper the stored image at this pool index *)
  | Vtpm_cycle of int
      (** save then restore the vTPM state of this slot's host — what a
          migration or suspend-to-disk carries; the state is stale until a
          [Vtpm_rebind] *)
  | Vtpm_clone of int * int
      (** restore the vTPM state saved from [src]'s host into [dst]'s host
          (rollback/clone attack; a backend-mismatched restore fails) *)
  | Vtpm_rebind of int  (** re-register this slot's host vTPM with the Privacy CA *)
  | Protocol_term of Copland.Phrase.t
      (** run a protocol phrase through the Controller interpreter; an
          ill-typed phrase (e.g. a delegation that no longer matches the
          live placement) replays as a rejected no-op *)
  | Monitor_enable of int
      (** arm continuous monitoring: every monitored, running VM is
          re-attested (Runtime_integrity) whenever its last probe is older
          than this period in ms; 0 disarms.  Probing also happens {e
          inside} [Advance] ops, in period-sized chunks, so long quiet
          stretches stay covered *)
  | Monitor_period of int
      (** change the re-attestation period of an armed monitor (ms > 0;
          a no-op while disarmed) *)
  | Monitor_storm of int
      (** correlated incident: hide malware in every VM co-hosted with
          this slot's VM — an armed monitor must surface a Compromised
          verdict within one period of any cached verdicts expiring *)

type scenario = { seed : int; ops : op list }

val images : string array
(** The image pool scenario ops index into. *)

val workloads : string array
(** The workload pool ([""] means idle). *)

val properties : Core.Property.t array
(** The property pool, [Core.Property.all] in order. *)

val op_to_string : op -> string

val to_string : scenario -> string
(** One line: [seed=<n> ops=<op>;<op>;...]. *)

val of_string : string -> scenario option
(** Parses exactly the [to_string] form; [None] on any malformed input. *)

val equal_op : op -> op -> bool
