module Codec = Wire.Codec

type attest_request = { vid : string; property : Property.t; nonce : string }

type as_request = { vid : string; server : string; property : Property.t; nonce : string }

type measure_request = { vid : string; requests_raw : string; nonce : string }

type measure_response = {
  vid : string;
  requests_raw : string;
  values_raw : string;
  nonce : string;
  quote : string;
  signature : string;
  avk : string;
  endorsement : string;
}

type as_report = {
  vid : string;
  server : string;
  property : Property.t;
  report : Report.t;
  nonce : string;
  quote : string;
  signature : string;
}

type controller_report = {
  vid : string;
  property : Property.t;
  report : Report.t;
  nonce : string;
  quote : string;
  signature : string;
}

(* --- Batched attestation -------------------------------------------------- *)

(* Magic first fields let the batch messages share a channel with the
   unbatched ones: the decoder that matches wins, and [Codec.decode]'s
   trailing-bytes check keeps the formats from shadowing each other. *)
let batch_measure_magic = "cm-batch-measure/1"
let batch_as_magic = "cm-batch-as/1"

type batch_measure_request = {
  bm_items : (string * string) list; (* (vid, requests_raw) *)
  bm_nonce : string; (* N3, shared by the whole batch *)
}

type batch_item = {
  bi_vid : string;
  bi_requests_raw : string;
  bi_values_raw : string;
  bi_proof : Crypto.Merkle.proof; (* inclusion of this item's Q3 leaf *)
}

type batch_measure_response = {
  br_items : batch_item list;
  br_nonce : string; (* echo of N3 *)
  br_root : string; (* Merkle root over the items' Q3 quotes *)
  br_signature : string; (* [root||N3]ASKs — one signature for the batch *)
  br_avk : string;
  br_endorsement : string;
}

type batch_as_request = {
  ba_server : string;
  ba_items : (string * Property.t) list; (* (vid, property) *)
  ba_nonce : string; (* N2, shared by the whole batch *)
}

(* --- Quotes ------------------------------------------------------------- *)

let q3 ~vid ~requests_raw ~values_raw ~nonce =
  Crypto.Sha256.digest_list [ "Q3|"; vid; "|"; requests_raw; "|"; values_raw; "|"; nonce ]

let q2 ~vid ~server ~property ~report ~nonce =
  Crypto.Sha256.digest_list
    [
      "Q2|";
      vid;
      "|";
      server;
      "|";
      Property.to_string property;
      "|";
      Codec.encode (fun e -> Report.encode e report);
      "|";
      nonce;
    ]

let q1 ~vid ~property ~report ~nonce =
  Crypto.Sha256.digest_list
    [
      "Q1|";
      vid;
      "|";
      Property.to_string property;
      "|";
      Codec.encode (fun e -> Report.encode e report);
      "|";
      nonce;
    ]

(* --- Signature payloads -------------------------------------------------- *)

let measure_response_payload (r : measure_response) =
  Codec.encode (fun e ->
      Codec.Enc.str e "measure-response";
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.requests_raw;
      Codec.Enc.str e r.values_raw;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote)

let as_report_payload (r : as_report) =
  Codec.encode (fun e ->
      Codec.Enc.str e "as-report";
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.server;
      Property.encode e r.property;
      Report.encode e r.report;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote)

let controller_report_payload (r : controller_report) =
  Codec.encode (fun e ->
      Codec.Enc.str e "controller-report";
      Codec.Enc.str e r.vid;
      Property.encode e r.property;
      Report.encode e r.report;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote)

(* --- Wire codecs ---------------------------------------------------------- *)

let encode_attest_request (r : attest_request) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Property.encode e r.property;
      Codec.Enc.str e r.nonce)

let decode_attest_request s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let property = Property.decode d in
      let nonce = Codec.Dec.str d in
      { vid; property; nonce })

let encode_as_request (r : as_request) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.server;
      Property.encode e r.property;
      Codec.Enc.str e r.nonce)

let decode_as_request s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let server = Codec.Dec.str d in
      let property = Property.decode d in
      let nonce = Codec.Dec.str d in
      { vid; server; property; nonce })

let encode_measure_request (r : measure_request) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.requests_raw;
      Codec.Enc.str e r.nonce)

let decode_measure_request s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let requests_raw = Codec.Dec.str d in
      let nonce = Codec.Dec.str d in
      { vid; requests_raw; nonce })

let encode_measure_response (r : measure_response) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.requests_raw;
      Codec.Enc.str e r.values_raw;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote;
      Codec.Enc.str e r.signature;
      Codec.Enc.str e r.avk;
      Codec.Enc.str e r.endorsement)

let decode_measure_response s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let requests_raw = Codec.Dec.str d in
      let values_raw = Codec.Dec.str d in
      let nonce = Codec.Dec.str d in
      let quote = Codec.Dec.str d in
      let signature = Codec.Dec.str d in
      let avk = Codec.Dec.str d in
      let endorsement = Codec.Dec.str d in
      { vid; requests_raw; values_raw; nonce; quote; signature; avk; endorsement })

let encode_as_report (r : as_report) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Codec.Enc.str e r.server;
      Property.encode e r.property;
      Report.encode e r.report;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote;
      Codec.Enc.str e r.signature)

let decode_as_report s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let server = Codec.Dec.str d in
      let property = Property.decode d in
      let report = Report.decode d in
      let nonce = Codec.Dec.str d in
      let quote = Codec.Dec.str d in
      let signature = Codec.Dec.str d in
      { vid; server; property; report; nonce; quote; signature })

let encode_controller_report (r : controller_report) =
  Codec.encode (fun e ->
      Codec.Enc.str e r.vid;
      Property.encode e r.property;
      Report.encode e r.report;
      Codec.Enc.str e r.nonce;
      Codec.Enc.str e r.quote;
      Codec.Enc.str e r.signature)

let decode_controller_report s =
  Codec.decode_opt s (fun d ->
      let vid = Codec.Dec.str d in
      let property = Property.decode d in
      let report = Report.decode d in
      let nonce = Codec.Dec.str d in
      let quote = Codec.Dec.str d in
      let signature = Codec.Dec.str d in
      { vid; property; report; nonce; quote; signature })

(* --- Batch wire codecs ----------------------------------------------------- *)

let encode_batch_measure_request (r : batch_measure_request) =
  Codec.encode (fun e ->
      Codec.Enc.str e batch_measure_magic;
      Codec.Enc.list e
        (fun (vid, requests_raw) ->
          Codec.Enc.str e vid;
          Codec.Enc.str e requests_raw)
        r.bm_items;
      Codec.Enc.str e r.bm_nonce)

let decode_batch_measure_request s =
  Codec.decode_opt s (fun d ->
      let magic = Codec.Dec.str d in
      if not (String.equal magic batch_measure_magic) then
        raise (Codec.Error "not a batch measure request");
      let bm_items =
        Codec.Dec.list d (fun d ->
            let vid = Codec.Dec.str d in
            let requests_raw = Codec.Dec.str d in
            (vid, requests_raw))
      in
      let bm_nonce = Codec.Dec.str d in
      { bm_items; bm_nonce })

let encode_batch_item e (i : batch_item) =
  Codec.Enc.str e i.bi_vid;
  Codec.Enc.str e i.bi_requests_raw;
  Codec.Enc.str e i.bi_values_raw;
  Crypto.Merkle.encode e i.bi_proof

let decode_batch_item d =
  let bi_vid = Codec.Dec.str d in
  let bi_requests_raw = Codec.Dec.str d in
  let bi_values_raw = Codec.Dec.str d in
  let bi_proof = Crypto.Merkle.decode d in
  { bi_vid; bi_requests_raw; bi_values_raw; bi_proof }

let encode_batch_measure_response (r : batch_measure_response) =
  Codec.encode (fun e ->
      Codec.Enc.list e (encode_batch_item e) r.br_items;
      Codec.Enc.str e r.br_nonce;
      Codec.Enc.str e r.br_root;
      Codec.Enc.str e r.br_signature;
      Codec.Enc.str e r.br_avk;
      Codec.Enc.str e r.br_endorsement)

let decode_batch_measure_response s =
  Codec.decode_opt s (fun d ->
      let br_items = Codec.Dec.list d decode_batch_item in
      let br_nonce = Codec.Dec.str d in
      let br_root = Codec.Dec.str d in
      let br_signature = Codec.Dec.str d in
      let br_avk = Codec.Dec.str d in
      let br_endorsement = Codec.Dec.str d in
      { br_items; br_nonce; br_root; br_signature; br_avk; br_endorsement })

let encode_batch_as_request (r : batch_as_request) =
  Codec.encode (fun e ->
      Codec.Enc.str e batch_as_magic;
      Codec.Enc.str e r.ba_server;
      Codec.Enc.list e
        (fun (vid, property) ->
          Codec.Enc.str e vid;
          Property.encode e property)
        r.ba_items;
      Codec.Enc.str e r.ba_nonce)

let decode_batch_as_request s =
  Codec.decode_opt s (fun d ->
      let magic = Codec.Dec.str d in
      if not (String.equal magic batch_as_magic) then
        raise (Codec.Error "not a batch AS request");
      let ba_server = Codec.Dec.str d in
      let ba_items =
        Codec.Dec.list d (fun d ->
            let vid = Codec.Dec.str d in
            let property = Property.decode d in
            (vid, property))
      in
      let ba_nonce = Codec.Dec.str d in
      { ba_server; ba_items; ba_nonce })

(* --- Verification --------------------------------------------------------- *)

type verify_error =
  [ `Bad_signature | `Bad_quote | `Nonce_mismatch | `Vid_mismatch | `Bad_certificate ]

let pp_verify_error ppf = function
  | `Bad_signature -> Format.pp_print_string ppf "bad signature"
  | `Bad_quote -> Format.pp_print_string ppf "quote mismatch"
  | `Nonce_mismatch -> Format.pp_print_string ppf "nonce mismatch (replay?)"
  | `Vid_mismatch -> Format.pp_print_string ppf "VM id mismatch"
  | `Bad_certificate -> Format.pp_print_string ppf "bad attestation-key certificate"

let check cond err = if cond then Ok () else Error err

let ( let* ) = Result.bind

type anchor = Privacy_ca of Crypto.Rsa.public * Net.Ca.cert | Vendor_root of Crypto.Rsa.public

type session = {
  s_avk : string;
  s_endorsement : string;
  s_signature : string;
  s_payload : string;
  s_nonce : string;
}

let measure_session (r : measure_response) =
  {
    s_avk = r.avk;
    s_endorsement = r.endorsement;
    s_signature = r.signature;
    s_payload = measure_response_payload r;
    s_nonce = r.nonce;
  }

let batch_session (r : batch_measure_response) =
  {
    s_avk = r.br_avk;
    s_endorsement = r.br_endorsement;
    s_signature = r.br_signature;
    s_payload = Tpm.Backend.batch_quote_payload ~root:r.br_root ~nonce:r.br_nonce;
    s_nonce = r.br_nonce;
  }

(* AVKs chains to the anchor (the pCA certificate, or the two-link platform
   chain in the endorsement field checked against the vendor root) and
   signs the payload.  Memoized (as are the verify sites below): a
   re-appraised quote — batch re-check, replayed retry, audited verdict — is
   a byte-identical triple, so only its first appraisal pays the
   exponentiation. *)
let verify_session ~anchor s =
  match Crypto.Rsa.public_of_string s.s_avk with
  | None -> Error `Bad_certificate
  | Some avk ->
      let anchored =
        match anchor with
        | Privacy_ca (pca, cert) -> Privacy_ca.check_certificate ~pca cert ~key:avk
        | Vendor_root root ->
            Tpm.Platform_root.verify_chain ~root ~endorsement:s.s_endorsement ~key:avk
      in
      let* () = check anchored `Bad_certificate in
      check (Crypto.Rsa.verify_memo avk ~signature:s.s_signature s.s_payload) `Bad_signature

let verify_measure_response ~anchor ~expected_vid ~expected_requests ~expected_nonce
    (r : measure_response) =
  let* () = verify_session ~anchor (measure_session r) in
  let* () = check (String.equal r.vid expected_vid) `Vid_mismatch in
  let* () = check (String.equal r.requests_raw expected_requests) `Vid_mismatch in
  let* () = check (String.equal r.nonce expected_nonce) `Nonce_mismatch in
  check
    (String.equal r.quote
       (q3 ~vid:r.vid ~requests_raw:r.requests_raw ~values_raw:r.values_raw ~nonce:r.nonce))
    `Bad_quote

(* Whole-batch envelope: the anchor binds AVKs and the single session-key
   signature covers the Merkle root + nonce.  Verified once per batch, not
   once per report — that is the amortization. *)
let verify_batch_envelope ~anchor ~expected_nonce (r : batch_measure_response) =
  let* () = verify_session ~anchor (batch_session r) in
  check (String.equal r.br_nonce expected_nonce) `Nonce_mismatch

(* A restored, not re-registered vTPM has no anchor: the Privacy CA only
   recognised its endorsement.  The session signature and the N3 echo are
   still checked, so a forger cannot ride the stale path and an old reply
   cannot be replayed into it. *)
let verify_stale_session ~avk ~expected_nonce s =
  let* () =
    check (Crypto.Rsa.verify_memo avk ~signature:s.s_signature s.s_payload) `Bad_signature
  in
  check (String.equal s.s_nonce expected_nonce) `Nonce_mismatch

(* Per-report check: the item's Q3 leaf must sit under the signed root, so a
   report keeps its individual integrity even though the signature is
   shared.  [expected_requests] pins rM to what the appraiser asked for. *)
let verify_batch_item ~root ~nonce ~expected_requests (i : batch_item) =
  let* () = check (String.equal i.bi_requests_raw expected_requests) `Vid_mismatch in
  let leaf =
    q3 ~vid:i.bi_vid ~requests_raw:i.bi_requests_raw ~values_raw:i.bi_values_raw ~nonce
  in
  check (Crypto.Merkle.verify ~root ~leaf i.bi_proof) `Bad_quote

let verify_as_report ~key ~expected_vid ~expected_server ~expected_property ~expected_nonce
    (r : as_report) =
  let* () =
    check (Crypto.Rsa.verify_memo key ~signature:r.signature (as_report_payload r)) `Bad_signature
  in
  let* () = check (String.equal r.vid expected_vid) `Vid_mismatch in
  let* () = check (String.equal r.server expected_server) `Vid_mismatch in
  let* () = check (Property.equal r.property expected_property) `Vid_mismatch in
  let* () = check (String.equal r.nonce expected_nonce) `Nonce_mismatch in
  check
    (String.equal r.quote
       (q2 ~vid:r.vid ~server:r.server ~property:r.property ~report:r.report ~nonce:r.nonce))
    `Bad_quote

let verify_controller_report ~key ~expected_vid ~expected_property ~expected_nonce
    (r : controller_report) =
  let* () =
    check
      (Crypto.Rsa.verify_memo key ~signature:r.signature (controller_report_payload r))
      `Bad_signature
  in
  let* () = check (String.equal r.vid expected_vid) `Vid_mismatch in
  let* () = check (Property.equal r.property expected_property) `Vid_mismatch in
  let* () = check (String.equal r.nonce expected_nonce) `Nonce_mismatch in
  check
    (String.equal r.quote (q1 ~vid:r.vid ~property:r.property ~report:r.report ~nonce:r.nonce))
    `Bad_quote
