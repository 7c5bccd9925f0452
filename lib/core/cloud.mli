(** Whole-cloud assembly: engine, network, CAs, Cloud Controller,
    Attestation Server and a fleet of cloud servers, wired as in paper
    Figure 1, plus the customer-side API with end-to-end report
    verification. *)

type config = {
  seed : int;
  num_servers : int;
  num_attestation_servers : int;
      (** AS instances; cloud servers are partitioned into clusters
          round-robin, one AS each (paper 3.2.3 scalability) *)
  pcpus : int;  (** per server *)
  mem_mb : int;  (** per server *)
  key_bits : int;  (** RSA modulus size for every identity (tests use 512) *)
  insecure_servers : int;  (** trailing servers built without a Trust Module *)
  corrupt_platforms : int list;  (** indices of servers booted with a tampered hypervisor *)
  refs : Interpret.refs;
  backend_of : int -> Tpm.Backend.kind;
      (** trust backend per server index (default all [Classic], which is
          byte-identical on the wire to the pre-backend cloud); a vendor
          {!Tpm.Platform_root} is minted iff some index maps to
          [Cvm_report] *)
}

val default_config : config
(** 3 servers (as in the paper's testbed), 4 pCPUs / 32 GB each, 1024-bit
    keys, everything secure and pristine. *)

type t

val build : ?config:config -> unit -> t
(** Create and wire everything: CA + privacy CA, identities, per-server
    attestation clients and monitor kernels, golden reference values, and
    the standard workload registry (idle, the six cloud benchmarks, busy).
    Every principal is built whole, and every secure-channel endpoint is
    registered here, from one peer table (paper Fig. 3):
    - the controller accepts any certified peer except the controller,
      the Attestation Servers and the cloud servers;
    - each Attestation Server accepts only the controller;
    - each server's Attestation Client accepts only the AS of its cluster
      (server [i] is in cluster [i mod num_attestation_servers]). *)

val config : t -> config
val net : t -> Net.Network.t
val ca : t -> Net.Ca.t
val pca : t -> Privacy_ca.t
val controller : t -> Controller.t
val attestation_server : t -> Attestation_server.t
(** The first (or only) attestation server. *)

val attestation_servers : t -> Attestation_server.t list
val servers : t -> Hypervisor.Server.t list
val find_server : t -> string -> Hypervisor.Server.t option

val platform_root : t -> Tpm.Platform_root.t option
(** The hardware vendor root, present iff the config placed a [Cvm_report]
    backend somewhere. *)

(** {2 vTPM lifecycle}

    Management-plane operations on servers running an e-vTPM
    ({!Tpm.Backend.kind} [Evtpm]): serialize the module state (what a
    migration or suspend-to-disk carries), restore it (which marks the
    module stale), and re-register with the Privacy CA (which is the {e
    only} way quotes from restored state verify Healthy again). *)

val vtpm_save : t -> server:string -> (string, string) result

val vtpm_restore : t -> server:string -> string -> (unit, string) result
(** Restore saved state into [server]'s vTPM.  Until {!vtpm_rebind}, every
    quote it mints is rejected by the Privacy CA as a stale binding and
    comes back as a signed [Compromised] verdict. *)

val vtpm_rebind : t -> server:string -> (int, string) result
(** Bump the binding epoch on the device and mirror it to the Privacy CA;
    returns the new epoch. *)

val run_for : t -> Sim.Time.t -> unit
(** Advance simulated time (runs scheduler ticks, periodic attestations,
    workload programs...). *)

val now : t -> Sim.Time.t

val enable_audit : ?checkpoint_interval:Sim.Time.t -> t -> Audit.Log.t list
(** Switch the verdict transparency layer on end to end (opt-in; off by
    default, in which case every wire byte is identical to the pre-audit
    protocol): calls {!Attestation_server.enable_audit} on every AS, turns
    on {!Controller.set_auditing}, and schedules a periodic signed
    checkpoint of every log ([checkpoint_interval] defaults to 1 s; pass
    [0] to skip scheduling).  Returns the logs, one per AS, for wiring
    auditors. *)

(** Customer-side API: issues Table 1 requests over a secure channel and
    verifies the full signature chain of every report it accepts. *)
module Customer : sig
  type cloud := t
  type t

  type error = [ `Cloud of string | `Channel of Net.Secure_channel.error | `Forged of string ]

  val pp_error : Format.formatter -> error -> unit

  val create : cloud -> name:string -> t
  (** Enrols a customer with the cloud's CA.  Raises [Invalid_argument]
      when [name] is the controller's, an Attestation Server's or a cloud
      server's (a certificate under that subject would pass its peer
      checks), or an earlier customer's (periodic reports are delivered
      by name). *)

  val launch :
    t ->
    image:string ->
    flavor:string ->
    ?properties:Property.t list ->
    ?workload:string ->
    unit ->
    (Commands.launch_info, error) result

  val attest : t -> vid:string -> property:Property.t -> (Report.t, error) result
  (** One-time attestation with a fresh nonce; the controller report's
      signature, quote Q1, vid, property and nonce are all verified before
      the report is trusted. *)

  val attest_periodic :
    t ->
    vid:string ->
    property:Property.t ->
    freq:Sim.Time.t ->
    ?on_report:(Report.t -> unit) ->
    unit ->
    (unit, error) result
  (** Table 1 [runtime_attest_periodic]: results arrive as the simulation
      advances; each is chain-verified, against the nonce of the round it
      answers and the controller key of the last completed handshake,
      before [on_report] sees it.  A round the controller could not
      attest is skipped, not counted as forged. *)

  val attest_periodic_random :
    t ->
    vid:string ->
    property:Property.t ->
    min:Sim.Time.t ->
    max:Sim.Time.t ->
    ?on_report:(Report.t -> unit) ->
    unit ->
    (unit, error) result
  (** Periodic attestation at unpredictable intervals, so an attacker
      cannot time its activity around the measurement windows. *)

  val attest_periodic_scheduled :
    t ->
    vid:string ->
    property:Property.t ->
    schedule:Schedule.t ->
    ?on_report:(Report.t -> unit) ->
    unit ->
    (unit, error) result

  val stop_periodic : t -> vid:string -> property:Property.t -> (unit, error) result
  val terminate : t -> vid:string -> (unit, error) result
  val describe : t -> vid:string -> (string * Property.t list, error) result

  val periodic_reports : t -> Report.t list
  (** All verified periodic reports received so far, oldest first. *)

  val forged_count : t -> int
  (** Periodic deliveries that failed verification (would indicate an
      attack on the monitoring plane). *)
end
