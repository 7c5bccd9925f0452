(** A cloud server: pCPUs under the credit scheduler, RAM, a software
    platform (hypervisor + host OS, measured at boot), and — on secure
    servers — the Trust Module of Figure 2.

    The server is the {e attester}: the Monitor Module (in [lib/monitors])
    reads its scheduler statistics, guest kernels and platform measurements,
    and its Trust Module signs them. *)

type platform = { hypervisor_build : string; host_os_build : string }

val pristine_platform : platform
val corrupted_platform : platform
(** A platform whose hypervisor binary was tampered with in storage. *)

val golden_platform_measurement : string
(** PCR composite a pristine boot produces; the appraiser's reference. *)

type instance = {
  vm : Vm.t;
  domain : Credit_scheduler.domain;
  image_hash_at_launch : string;
  mutable suspended : bool;
}

type t

val create :
  engine:Sim.Engine.t ->
  name:string ->
  ?pcpus:int ->
  ?mem_mb:int ->
  ?platform:platform ->
  ?secure:bool ->
  ?capabilities:string list ->
  ?key_bits:int ->
  ?backend:Tpm.Backend.kind ->
  ?platform_root:Tpm.Platform_root.t ->
  seed:string ->
  unit ->
  t
(** Defaults: 4 pCPUs, 32 GB, pristine platform, [backend = Classic].
    When [secure] (default true) the server gets a trust backend of the
    chosen kind and boots measured: the platform software is
    hash-extended into PCRs 0 and 1.  A [Cvm_report] backend needs the
    hardware vendor's [platform_root] to endorse its fused platform key
    ([Invalid_argument] otherwise; see {!Tpm.Backend.create}). *)

val name : t -> string
val engine : t -> Sim.Engine.t
val scheduler : t -> Credit_scheduler.t

val cache : t -> Cache.t
(** The server's shared last-level cache (co-resident VMs contend in it). *)

val trust_backend : t -> Tpm.Backend.t option
(** The server's trust backend, whatever its kind; [None] on insecure
    servers. *)

val backend_kind : t -> Tpm.Backend.kind option

val is_secure : t -> bool
val capabilities : t -> string list
val mem_free_mb : t -> int

(** {2 VM management} *)

val launch :
  t -> ?pin:int -> ?pins:int option list -> Vm.t -> (instance, [ `Insufficient_memory ]) result
(** Create the domain and vCPUs; records the image hash at launch time for
    startup-integrity attestation.  [pin] pins every vCPU to one pCPU;
    [pins] gives per-vCPU placements and overrides [pin] where set. *)

val find : t -> string -> instance option
val instances : t -> instance list

val suspend : t -> string -> bool
val resume : t -> string -> bool

val destroy : t -> string -> bool
(** Remove the VM and free its memory. *)

val detach : t -> string -> instance option
(** Like {!destroy} but returns the instance (for migration: the VM record
    and guest state move to the target server). *)
