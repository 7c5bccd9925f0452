let ms = Sim.Time.ms

(* Attestation path.  A hardware TPM takes hundreds of milliseconds for RSA
   key generation and signing; the TPM emulator the paper integrates is
   faster but the network dominates either way (paper 7.1.1).

   quote_sign is calibrated against the host crypto bench (BENCH_crypto.json):
   the emulator's RSA private operation now runs CRT + sliding-window
   Montgomery, measured 5.4x faster at the 1024-bit quote-key size than the
   full-width path this constant was first calibrated to (140 ms -> 26 ms).
   signature_verify stays where it was: the public exponent 65537 never used
   the window or CRT, and the verify memo cannot help on the cold path
   because a fresh-nonce quote is always a memo miss. *)
let session_keygen = ms 320
let quote_sign = ms 26
let signature_verify = ms 8
let report_sign = ms 25
let pca_certify = ms 45
let measurement_collect = ms 18
let interpret = ms 30
let db_lookup = ms 12
let handshake_crypto = ms 60

(* Per-backend attestation-path costs.  The classic constants above stay the
   calibration anchors; the other backends scale them by where their crypto
   runs.  An ephemeral vTPM is host software (no slow device engine, but it
   still generates a fresh RSA session key); a CVM report device signs with a
   pre-fused platform-derived key on dedicated hardware, so "keygen" is only
   key derivation.  CVM verification swaps the Privacy-CA certificate check
   for walking the two-link platform certificate chain: two RSA verifies. *)
let evtpm_session_keygen = ms 70
let evtpm_quote_sign = ms 9
let cvm_session_keygen = ms 40
let cvm_quote_sign = ms 6
let cvm_chain_verify = signature_verify + signature_verify

(* Layered attestation: before trusting a VM quote, the appraiser checks the
   freshness of the host's trust backend (binding epoch + stale flag).  This
   is a local table walk plus one hash comparison — cheap next to any RSA
   term, but nonzero so protocol terms that layer the check are measurably
   dearer than ones that skip it. *)
let layer_appraise = ms 4

let session_keygen_for = function
  | Tpm.Backend.Classic -> session_keygen
  | Tpm.Backend.Evtpm -> evtpm_session_keygen
  | Tpm.Backend.Cvm_report -> cvm_session_keygen

let quote_sign_for = function
  | Tpm.Backend.Classic -> quote_sign
  | Tpm.Backend.Evtpm -> evtpm_quote_sign
  | Tpm.Backend.Cvm_report -> cvm_quote_sign

(* Batched attestation.  One session keypair and one quote signature cover a
   whole batch of measurement reports; what remains per report is Merkle
   hashing, three orders of magnitude cheaper than the RSA operations it
   displaces (the host hashes a KB in microseconds, see perf's
   crypto.sha256_mb_s; 40 us models the Trust Module's slower internal
   engine). *)
let merkle_hash = Sim.Time.us 40

(* Trust-Module side: build the tree, mint one session key, sign the root. *)
let batch_quote_cost_for ~batch kind =
  session_keygen_for kind + quote_sign_for kind
  + (Crypto.Merkle.node_count batch * merkle_hash)

(* Appraiser side: one RSA verification for the whole batch, then per report
   a leaf hash plus an O(log n) inclusion-proof walk. *)
let batch_verify_cost ~batch =
  signature_verify + (batch * (1 + Crypto.Merkle.max_proof_length batch) * merkle_hash)

(* Transparency log (lib/audit).  Appending a verdict rehashes the leaf and
   the O(log n) right-spine interiors; proofs are O(log n) hash walks; tree
   heads are RSA operations in the same class as report signing. *)
let audit_append ~size = (1 + Crypto.Merkle.max_proof_length (max 1 size)) * merkle_hash
let audit_proof ~size = max 1 (Crypto.Merkle.max_proof_length (max 1 size)) * merkle_hash
let sth_sign = ms 25
let sth_verify = ms 8

(* Customer-side receipt check: one STH signature verification plus the
   inclusion-proof walk. *)
let audit_receipt_verify ~size = sth_verify + audit_proof ~size

(* Launch stages, calibrated to Figure 9's 3-6 s totals. *)
let scheduling_base = ms 280
let scheduling_per_candidate = ms 25
let networking = ms 750
let mapping_base = ms 220
let mapping_per_gb = ms 4
let spawn_base = ms 900
let spawn_per_image_mb = Sim.Time.us 3200
let spawn_per_mem_gb = ms 90

(* Responses (Figure 11). *)
let terminate_base = ms 450
let suspend_base = ms 800
let suspend_per_mem_gb = ms 350
let resume_base = ms 600
let migration_dirty_fraction = 0.20
let migration_base = ms 2500
