(** Cloud Controller — the modified OpenStack Nova of paper section 6.1.

    Owns the nova database, the image store (glance), the hypervisor fleet,
    and the customer-facing API (Table 1 commands over a secure channel).
    Its [nova attest_service] forwards attestation requests to the
    Attestation Server, verifies the signed AS report, re-signs it with the
    controller key SKc, and hands it back to the customer.  Its
    [nova response] module executes the three remediation strategies of
    paper section 5.2 when attestation results turn bad. *)

type t

type response_strategy = Terminate_vm | Suspend_vm | Migrate_vm

val strategy_label : response_strategy -> string

type response_record = {
  at : Sim.Time.t;
  vid : string;
  strategy : response_strategy;
  reaction : Sim.Time.t;  (** simulated time the response took *)
  detail : string;
}

type launch_error =
  [ `No_qualified_server
  | `Insufficient_memory
  | `Rejected of Report.t  (** startup attestation failed definitively *)
  | `Attestation_failed of string ]

val create :
  net:Net.Network.t ->
  engine:Sim.Engine.t ->
  ca:Net.Ca.t ->
  seed:string ->
  ?key_bits:int ->
  ?name:string ->
  db:Database.t ->
  attestation_servers:(string * Crypto.Rsa.public) list ->
  ?cluster_of:(string -> int) ->
  unit ->
  t
(** [name] defaults to ["cloud-controller"].  Registers nothing on the
    network: {!Cloud} serves {!request_handler} under [name].  [db] is the
    nova database this controller owns (the Attestation Servers read VM
    images and server backends from it).  [attestation_servers] lists the
    (network name, VKa) of each cluster's Attestation Server (paper 3.2.3:
    several AS instances give scalability); [cluster_of] maps a cloud
    server name to its AS index (default: everything on AS 0). *)

val request_handler : t -> peer:string -> string -> string
(** The customer API: the on-request function for the controller's secure
    channel.  Decodes one Table 1 command from the authenticated customer
    [peer] and encodes the reply. *)

val name : t -> string
val identity : t -> Net.Secure_channel.Identity.t
val public_key : t -> Crypto.Rsa.public
val db : t -> Database.t

(** {2 Fleet, images and workloads} *)

val register_hypervisor : t -> Hypervisor.Server.t -> unit
val add_image : t -> Hypervisor.Image.t -> unit

val corrupt_image : t -> string -> bool
(** Attack hook: replace the stored image with a tampered copy. *)

val register_workload :
  t -> string -> (Hypervisor.Flavor.t -> unit -> Hypervisor.Program.t list) -> unit
(** Workload factories the launch command can reference by name
    (simulation stand-in for the customer's actual image payload). *)

(** {2 VM lifecycle} *)

type launch_request = {
  owner : string;
  image : string;
  flavor : string;
  properties : Property.t list;
  workload : string;  (** "" = idle *)
  pins : int option list;  (** per-vCPU pCPU pinning, for experiments *)
}

val launch : t -> launch_request -> (Commands.launch_info, launch_error) result
(** The five-stage launch of section 7.1.1, including startup attestation
    when security properties were requested.  A compromised platform makes
    the scheduler pick another server (section 5.1); a compromised image
    rejects the launch. *)

val terminate : t -> vid:string -> bool

(** {2 Attestation service} *)

val attest :
  t -> Protocol.attest_request -> (Protocol.controller_report, string) result * Ledger.t
(** One-time attestation: forwards to the AS with a fresh N2, verifies the
    AS signature and quote Q2, then signs the controller report (quote Q1
    over the customer's nonce N1).

    The AS leg rides the retry/resync stack through {!Hop}; if the AS stays
    unreachable through {!Hop.attempts} from-scratch rounds the call still
    returns [Ok] of a signed controller report whose status is
    [Report.Unknown reason], so a lossy network degrades the verdict
    instead of wedging the caller.
    Forgery-shaped failures (bad signatures, malformed replies, unknown
    hosts, missing or forged audit receipts) remain hard [Error]s.  The
    batched rounds of {!attest_many} share this round: the same AS call,
    the same per-report acceptance and re-signing, the same retry loop;
    only the wire format differs. *)

val cluster_count : t -> int
(** Number of configured AS clusters (length of [attestation_servers]). *)

val cluster_of_host : t -> host:string -> int
(** The AS cluster index a cloud server is routed to (clamped to the
    configured range, like the internal routing). *)

val attest_routed :
  t ->
  cluster:int ->
  Protocol.attest_request ->
  (Protocol.controller_report, string) result * Ledger.t
(** {!attest} on behalf of a protocol term's delegation node: the caller
    claims the VM belongs to AS cluster [cluster], and the claim is checked
    against the topology before any wire traffic.  A misroute is a hard
    error; a correct route takes the exact {!attest} path (byte-identical
    wire traffic). *)

val attest_many :
  t ->
  Protocol.attest_request list ->
  (Protocol.attest_request * (Protocol.controller_report, string) result) list * Ledger.t
(** Attest many (vid, property) pairs in one call, results in request
    order with a shared cost ledger.

    With {!set_batching} off (the default) this is exactly {!attest} in a
    loop.  With it on, cache misses are grouped by host and each group of
    two or more rides a single Merkle-batched AS round — one Trust-Module
    session key and one root signature cover the whole group, while every
    report still arrives individually signed and individually verified, so
    one tampered report fails alone.  Cache hits, unplaced VMs and lone
    requests always take the unbatched path. *)

val set_batching : t -> bool -> unit
(** Enable Merkle-batched AS rounds in {!attest_many} (off by default,
    opt-in like the verdict cache).  Never affects {!attest}. *)

val batching : t -> bool

val set_auditing : t -> bool -> unit
(** Require and verify a transparency-log inclusion receipt on every AS
    report before accepting the verdict (off by default, opt-in like
    batching and the verdict cache).  The AS side must have
    {!Attestation_server.enable_audit} on; a missing or forged receipt is a
    {e hard} error that never degrades to a signed [Unknown] — it is the
    attack signal the audit layer exists to surface. *)

val auditing : t -> bool

val verdict_cache : t -> Verdict_cache.t
(** The controller's verdict cache (disabled by default). *)

val set_verdict_cache_ttl : t -> Sim.Time.t -> unit
(** Enable verdict caching with the given TTL (0 disables).  While enabled,
    {!attest} answers from a fresh cached healthy verdict — re-signed under
    the caller's nonce — charging only controller-local ledger costs; cold
    results populate the cache ([Healthy] only), and lifecycle transitions
    (terminate, suspend, resume, migrate, image corruption) as well as
    unhealthy or [Unknown] observations invalidate it. *)

val subscribe : t -> owner:string -> (round:int -> Protocol.controller_report -> unit) -> unit
(** Where periodic attestation results for this customer's VMs are
    delivered (the push channel back to the customer), each with the round
    (1, 2, ...) whose nonce it answers.  A round whose attestation failed
    delivers nothing, so delivered rounds may skip. *)

(** {2 Responses} *)

val set_response_policy : t -> (Report.t -> response_strategy option) -> unit
(** Decide the remediation for a failed attestation; the default policy
    terminates on runtime-integrity compromise and migrates on
    covert-channel or availability compromise. *)

val respond : t -> response_strategy -> vid:string -> (Sim.Time.t, string) result
(** Execute a response; returns the simulated reaction time (Figure 11). *)

val resume : t -> vid:string -> (Sim.Time.t, string) result
(** Resume a suspended VM after the platform re-attests healthy. *)

val set_auto_resume : t -> ?recheck_period:Sim.Time.t -> ?max_rechecks:int -> bool -> unit
(** Section 5.2 response #2 behaviour: when a periodic attestation triggers
    suspension, keep re-attesting the VM every [recheck_period]; resume it
    if health returns, terminate it after [max_rechecks] failures.  On by
    default (5 s, 10 checks). *)

val responses : t -> response_record list
(** Responses executed so far, oldest first. *)

(** {2 Introspection (operator-side, not exposed to customers)} *)

val vm_host : t -> vid:string -> string option
val vm_state : t -> vid:string -> Database.vm_state option
val events : t -> string list
(** Human-readable event log, oldest first. *)
