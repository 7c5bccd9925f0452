(** The attestation protocol messages of paper Figure 3, with their exact
    byte encodings, quote computations and signature payloads.

    Three nonces guard the three hops: the customer's [N1], the
    controller's [N2] and the Attestation Server's [N3].  Three quotes
    chain the content: [Q3 = H(Vid||rM||M||N3)] over the measurements,
    [Q2 = H(Vid||I||P||R||N2)] over the AS report and
    [Q1 = H(Vid||P||R||N1)] over the report the customer receives. *)

(** Customer -> Controller (inside channel Kx). *)
type attest_request = { vid : string; property : Property.t; nonce : string }

(** Controller -> Attestation Server (inside channel Ky); [server] is the
    host identifier I the controller resolved. *)
type as_request = { vid : string; server : string; property : Property.t; nonce : string }

(** Attestation Server -> Cloud Server (inside channel Kz); [requests_raw]
    is the encoded measurement list rM. *)
type measure_request = { vid : string; requests_raw : string; nonce : string }

(** Cloud Server -> Attestation Server: measurements, quote and the
    session-key signature, plus the key material the pCA certifies. *)
type measure_response = {
  vid : string;
  requests_raw : string;
  values_raw : string;  (** encoded measurement values M *)
  nonce : string;  (** echo of N3 *)
  quote : string;  (** Q3 *)
  signature : string;  (** [[...]]ASKs *)
  avk : string;  (** AVKs, encoded public key *)
  endorsement : string;  (** [[AVKs]]SKs for the privacy CA *)
}

(** Attestation Server -> Controller. *)
type as_report = {
  vid : string;
  server : string;
  property : Property.t;
  report : Report.t;
  nonce : string;  (** echo of N2 *)
  quote : string;  (** Q2 *)
  signature : string;  (** [[...]]SKa *)
}

(** Controller -> Customer. *)
type controller_report = {
  vid : string;
  property : Property.t;
  report : Report.t;
  nonce : string;  (** echo of N1 *)
  quote : string;  (** Q1 *)
  signature : string;  (** [[...]]SKc *)
}

(** {2 Batched attestation}

    One Trust-Module quote covers a whole batch: the cloud server builds a
    Merkle tree over the per-report [Q3] quotes and signs only the root
    (with a single session key), so the dominant RSA costs are paid once
    per batch.  Each report still carries an O(log n) inclusion proof, so
    the appraiser derives {e individual} verdicts without trusting the
    aggregation — a tampered report fails its own proof while the rest of
    the batch stands. *)

(** Attestation Server -> Cloud Server: measure many VMs under one quote. *)
type batch_measure_request = {
  bm_items : (string * string) list;  (** (vid, requests_raw) per report *)
  bm_nonce : string;  (** N3, shared by the whole batch *)
}

type batch_item = {
  bi_vid : string;
  bi_requests_raw : string;
  bi_values_raw : string;
  bi_proof : Crypto.Merkle.proof;  (** inclusion of this item's Q3 leaf *)
}

(** Cloud Server -> Attestation Server. *)
type batch_measure_response = {
  br_items : batch_item list;
  br_nonce : string;  (** echo of N3 *)
  br_root : string;  (** Merkle root over the items' Q3 quotes *)
  br_signature : string;  (** [root||N3]ASKs — one signature for the batch *)
  br_avk : string;
  br_endorsement : string;
}

(** Controller -> Attestation Server: attest many VMs of one cloud server. *)
type batch_as_request = {
  ba_server : string;
  ba_items : (string * Property.t) list;
  ba_nonce : string;  (** N2, shared by the whole batch *)
}

val encode_batch_measure_request : batch_measure_request -> string
val decode_batch_measure_request : string -> batch_measure_request option
val encode_batch_measure_response : batch_measure_response -> string
val decode_batch_measure_response : string -> batch_measure_response option
val encode_batch_as_request : batch_as_request -> string
val decode_batch_as_request : string -> batch_as_request option

(** {2 Quotes} *)

val q3 : vid:string -> requests_raw:string -> values_raw:string -> nonce:string -> string
val q2 : vid:string -> server:string -> property:Property.t -> report:Report.t -> nonce:string -> string
val q1 : vid:string -> property:Property.t -> report:Report.t -> nonce:string -> string

(** {2 Signature payloads (everything but the signature field)} *)

val measure_response_payload : measure_response -> string
val as_report_payload : as_report -> string
val controller_report_payload : controller_report -> string

(** {2 Wire codecs} *)

val encode_attest_request : attest_request -> string
val decode_attest_request : string -> attest_request option
val encode_as_request : as_request -> string
val decode_as_request : string -> as_request option
val encode_measure_request : measure_request -> string
val decode_measure_request : string -> measure_request option
val encode_measure_response : measure_response -> string
val decode_measure_response : string -> measure_response option
val encode_as_report : as_report -> string
val decode_as_report : string -> as_report option
val encode_controller_report : controller_report -> string
val decode_controller_report : string -> controller_report option

(** {2 Verification} *)

type verify_error =
  [ `Bad_signature | `Bad_quote | `Nonce_mismatch | `Vid_mismatch | `Bad_certificate ]

val pp_verify_error : Format.formatter -> verify_error -> unit

(** What AVKs must chain to, per trust backend: the Privacy CA's key and
    the certificate it issued for AVKs (classic TPM and e-vTPM), or the
    hardware vendor's root key, against which the two-link platform chain
    in the endorsement field is checked ([Cvm_report]; the cloud operator
    is outside this trust path entirely). *)
type anchor = Privacy_ca of Crypto.Rsa.public * Net.Ca.cert | Vendor_root of Crypto.Rsa.public

(** The part of a cloud server's reply its session key vouches for, the
    same in both shapes: AVKs, its endorsement, the session signature, the
    bytes it signs and the N3 the reply echoes. *)
type session = {
  s_avk : string;
  s_endorsement : string;
  s_signature : string;
  s_payload : string;
  s_nonce : string;
}

val measure_session : measure_response -> session
val batch_session : batch_measure_response -> session

val verify_measure_response :
  anchor:anchor ->
  expected_vid:string ->
  expected_requests:string ->
  expected_nonce:string ->
  measure_response ->
  (unit, verify_error) result
(** The full Attestation Server check: [anchor] binds [avk], the signature
    verifies under [avk], the quote recomputes, and vid, rM and N3 all
    match the outstanding request. *)

val verify_stale_session :
  avk:Crypto.Rsa.public -> expected_nonce:string -> session -> (unit, verify_error) result
(** The re-check for a session key the Privacy CA recognised as coming from
    a restored, not re-registered e-vTPM (no certificate, so no anchor):
    the session signature verifies under [avk] ([`Bad_signature]), then
    the echoed nonce equals N3 ([`Nonce_mismatch]).  Both reply shapes use
    it. *)

val verify_as_report :
  key:Crypto.Rsa.public ->
  expected_vid:string ->
  expected_server:string ->
  expected_property:Property.t ->
  expected_nonce:string ->
  as_report ->
  (unit, verify_error) result

val verify_controller_report :
  key:Crypto.Rsa.public ->
  expected_vid:string ->
  expected_property:Property.t ->
  expected_nonce:string ->
  controller_report ->
  (unit, verify_error) result

val verify_batch_envelope :
  anchor:anchor ->
  expected_nonce:string ->
  batch_measure_response ->
  (unit, verify_error) result
(** Whole-batch check, done once: [anchor] binds [br_avk], the session-key
    signature covers root + nonce, N3 matches. *)

val verify_batch_item :
  root:string ->
  nonce:string ->
  expected_requests:string ->
  batch_item ->
  (unit, verify_error) result
(** Per-report check: rM matches the request and the item's recomputed Q3
    leaf is included under the signed [root]. *)
