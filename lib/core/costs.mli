(** Simulated-latency cost model.

    The paper measures wall-clock stage times on its OpenStack testbed with
    Ceilometer; we account the same costs in an explicit ledger.  Constants
    are calibrated to the magnitudes the paper reports (Figures 9 and 11):
    spawning dominates VM launch, the attestation stage adds ~20%, and
    migration dwarfs suspension dwarfs termination. *)

(** {2 Crypto and attestation-path costs} *)

val session_keygen : Sim.Time.t
(** Trust Module generates the per-attestation RSA keypair (the dominant
    attestation cost, as on a real TPM). *)

val quote_sign : Sim.Time.t (** Trust Module signs the measurement payload *)

val signature_verify : Sim.Time.t

val report_sign : Sim.Time.t

val pca_certify : Sim.Time.t (** privacy CA checks + issues the AVKs cert *)

val measurement_collect : Sim.Time.t (** Monitor Module gathers one request *)

val interpret : Sim.Time.t (** property interpretation and decision *)

val db_lookup : Sim.Time.t

val handshake_crypto : Sim.Time.t
(** CPU cost of an SSL-style handshake (both sides combined). *)

(** {2 Per-backend attestation-path costs}

    The classic Trust Module keeps the calibration constants above; the
    vTPM runs its crypto in host software and the CVM report device signs
    with a pre-fused platform-derived key, so their RSA terms shrink (see
    {!session_keygen_for} and {!quote_sign_for}). *)

val cvm_chain_verify : Sim.Time.t
(** Walking the two-link platform certificate chain (vendor root -> fused
    platform key -> report key): two RSA verifications, replacing the
    Privacy-CA certificate check. *)

val layer_appraise : Sim.Time.t
(** Nested "attest the attester" check: appraising the freshness of a host's
    trust backend (binding epoch / stale flag) before accepting VM quotes
    routed through it.  Local bookkeeping, far cheaper than any RSA term. *)

val session_keygen_for : Tpm.Backend.kind -> Sim.Time.t
val quote_sign_for : Tpm.Backend.kind -> Sim.Time.t

(** {2 Batched attestation costs}

    One Trust-Module quote covers a Merkle tree of reports; the RSA terms
    are paid once per batch and the per-report residue is hashing. *)

val merkle_hash : Sim.Time.t
(** One hash evaluation while building a tree or walking a proof. *)

val batch_quote_cost_for : batch:int -> Tpm.Backend.kind -> Sim.Time.t
(** Trust-Module cost of quoting a batch under the given backend: one
    session keygen, one root signature, [Crypto.Merkle.node_count batch]
    hashes. *)

val batch_verify_cost : batch:int -> Sim.Time.t
(** Appraiser cost: one signature verification plus per-report
    inclusion-proof walks. *)

(** {2 Transparency-log costs (lib/audit)}

    The verdict log's hot path is hashing (append + proof walks, O(log n)
    in the log size); signed tree heads pay RSA costs in the same class as
    report signing. *)

val audit_append : size:int -> Sim.Time.t
(** Appending one entry to a log of [size] entries: the leaf hash plus the
    right-spine interior rehashes. *)

val audit_proof : size:int -> Sim.Time.t
(** Serving or walking one inclusion/consistency proof at [size]. *)

val sth_sign : Sim.Time.t
val sth_verify : Sim.Time.t

val audit_receipt_verify : size:int -> Sim.Time.t
(** Customer-side check of an inclusion receipt: STH signature plus the
    proof walk. *)

(** {2 VM launch stage costs (OpenStack-shaped)} *)

val scheduling_base : Sim.Time.t
val scheduling_per_candidate : Sim.Time.t
val networking : Sim.Time.t
val mapping_base : Sim.Time.t
val mapping_per_gb : Sim.Time.t
val spawn_base : Sim.Time.t
val spawn_per_image_mb : Sim.Time.t
val spawn_per_mem_gb : Sim.Time.t

(** {2 Response costs (Figure 11)} *)

val terminate_base : Sim.Time.t
val suspend_base : Sim.Time.t
val suspend_per_mem_gb : Sim.Time.t
val resume_base : Sim.Time.t

val migration_dirty_fraction : float
(** Fraction of the VM's RAM actually transferred by pre-copy migration. *)

val migration_base : Sim.Time.t
