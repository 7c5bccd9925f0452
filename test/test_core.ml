(* Tests for the CloudMonatt core: properties, reports, protocol messages,
   privacy CA, policy, database, ledger and interpretation. *)

open Core

let qtest = QCheck_alcotest.to_alcotest

(* --- Property --------------------------------------------------------------- *)

let test_property_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Property.to_string p)
        true
        (Property.of_string (Property.to_string p) = Some p))
    Property.all;
  Alcotest.(check bool) "unknown" true (Property.of_string "nope" = None)

let property_codec_roundtrip =
  QCheck.Test.make ~name:"property list codec" ~count:50
    (QCheck.make
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) (QCheck.Gen.oneofl Property.all)))
    (fun ps ->
      Wire.Codec.decode
        (Wire.Codec.encode (fun e -> Property.encode_list e ps))
        Property.decode_list
      = ps)

(* --- Report ------------------------------------------------------------------ *)

let report_gen =
  let open QCheck.Gen in
  map2
    (fun (vid, evidence) (property, (status_tag, why, at)) ->
      let status =
        match status_tag mod 3 with
        | 0 -> Report.Healthy
        | 1 -> Report.Compromised why
        | _ -> Report.Unknown why
      in
      { Report.vid; property; status; evidence; produced_at = at })
    (pair string string)
    (pair (oneofl Property.all) (triple nat string nat))

let report_codec_roundtrip =
  QCheck.Test.make ~name:"report codec roundtrip" ~count:100 (QCheck.make report_gen)
    (fun r -> Wire.Codec.decode (Wire.Codec.encode (fun e -> Report.encode e r)) Report.decode = r)

let test_report_is_healthy () =
  let r =
    { Report.vid = "v"; property = Property.Startup_integrity; status = Report.Healthy;
      evidence = ""; produced_at = 0 }
  in
  Alcotest.(check bool) "healthy" true (Report.is_healthy r);
  Alcotest.(check bool) "compromised" false
    (Report.is_healthy { r with status = Report.Compromised "x" });
  Alcotest.(check bool) "unknown" false (Report.is_healthy { r with status = Report.Unknown "x" })

(* --- Ledger ------------------------------------------------------------------- *)

let test_ledger () =
  let l = Ledger.create () in
  Ledger.add l "a" 10;
  Ledger.add l "b" 5;
  Ledger.add l "a" 7;
  Alcotest.(check int) "total" 22 (Ledger.total l);
  Alcotest.(check int) "merged label" 17 (Ledger.of_label l "a");
  Alcotest.(check int) "missing label" 0 (Ledger.of_label l "zz");
  Alcotest.(check (list (pair string int))) "insertion order" [ ("a", 17); ("b", 5) ]
    (Ledger.entries l);
  let l2 = Ledger.create () in
  Ledger.add l2 "c" 1;
  Ledger.merge_into l l2;
  Alcotest.(check int) "merge" 23 (Ledger.total l)

(* --- Privacy CA ------------------------------------------------------------------ *)

let test_privacy_ca () =
  let pca = Privacy_ca.create ~seed:"pca" ~bits:512 () in
  let tm = Tpm.Backend.create Tpm.Backend.Classic ~key_bits:512 ~seed:"srv" () in
  Privacy_ca.enroll_server pca ~name:"server-1" (Tpm.Backend.identity_public tm);
  Alcotest.(check (list string)) "enrolled" [ "server-1" ] (Privacy_ca.enrolled pca);
  let session = Tpm.Backend.begin_session tm in
  (match
     Privacy_ca.certify_attestation_key pca ~key:session.public
       ~endorsement:session.endorsement
   with
  | Error `Unknown_server -> Alcotest.fail "should certify enrolled server"
  | Ok cert ->
      Alcotest.(check string) "anonymous subject" Privacy_ca.anonymous_subject
        cert.Net.Ca.subject;
      Alcotest.(check bool) "cert checks" true
        (Privacy_ca.check_certificate ~pca:(Privacy_ca.public pca) cert ~key:session.public));
  (* An unenrolled module's endorsement is refused. *)
  let rogue = Tpm.Backend.create Tpm.Backend.Classic ~key_bits:512 ~seed:"rogue" () in
  let rogue_session = Tpm.Backend.begin_session rogue in
  match
    Privacy_ca.certify_attestation_key pca ~key:rogue_session.public
      ~endorsement:rogue_session.endorsement
  with
  | Error `Unknown_server -> ()
  | Ok _ -> Alcotest.fail "rogue module must be refused"

let test_privacy_ca_mismatched_key () =
  let pca = Privacy_ca.create ~seed:"pca2" ~bits:512 () in
  let tm = Tpm.Backend.create Tpm.Backend.Classic ~key_bits:512 ~seed:"srv2" () in
  Privacy_ca.enroll_server pca ~name:"s" (Tpm.Backend.identity_public tm);
  let s1 = Tpm.Backend.begin_session tm in
  let s2 = Tpm.Backend.begin_session tm in
  (* Endorsement of key 1 does not certify key 2. *)
  match Privacy_ca.certify_attestation_key pca ~key:s2.public ~endorsement:s1.endorsement with
  | Error `Unknown_server -> ()
  | Ok _ -> Alcotest.fail "endorsement must bind the exact key"

(* --- Protocol messages --------------------------------------------------------------- *)

let sample_report =
  {
    Report.vid = "vm-1";
    property = Property.Cpu_availability;
    status = Report.Healthy;
    evidence = "usage 52%";
    produced_at = 123456;
  }

let rsa = lazy (Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"proto") ~bits:512)

let signed_as_report () =
  let kp = Lazy.force rsa in
  let quote =
    Protocol.q2 ~vid:"vm-1" ~server:"server-1" ~property:Property.Cpu_availability
      ~report:sample_report ~nonce:"N2"
  in
  let unsigned =
    {
      Protocol.vid = "vm-1";
      server = "server-1";
      property = Property.Cpu_availability;
      report = sample_report;
      nonce = "N2";
      quote;
      signature = "";
    }
  in
  { unsigned with Protocol.signature = Crypto.Rsa.sign kp.secret (Protocol.as_report_payload unsigned) }

let test_as_report_verifies () =
  let kp = Lazy.force rsa in
  let r = signed_as_report () in
  Alcotest.(check bool) "verifies" true
    (Protocol.verify_as_report ~key:kp.public ~expected_vid:"vm-1" ~expected_server:"server-1"
       ~expected_property:Property.Cpu_availability ~expected_nonce:"N2" r
    = Ok ())

let test_as_report_rejections () =
  let kp = Lazy.force rsa in
  let r = signed_as_report () in
  let verify ?(vid = "vm-1") ?(server = "server-1") ?(nonce = "N2") r =
    Protocol.verify_as_report ~key:kp.public ~expected_vid:vid ~expected_server:server
      ~expected_property:Property.Cpu_availability ~expected_nonce:nonce r
  in
  Alcotest.(check bool) "wrong nonce" true (verify ~nonce:"N9" r = Error `Nonce_mismatch);
  Alcotest.(check bool) "wrong vid" true (verify ~vid:"vm-2" r = Error `Vid_mismatch);
  (* Tampered report body invalidates the signature. *)
  let tampered =
    { r with Protocol.report = { sample_report with Report.status = Report.Compromised "x" } }
  in
  Alcotest.(check bool) "tampered body" true (verify tampered = Error `Bad_signature);
  (* Re-signed by the attacker's key fails key pinning. *)
  let attacker = Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"attacker") ~bits:512 in
  let forged =
    { tampered with
      Protocol.signature =
        Crypto.Rsa.sign attacker.secret
          (Protocol.as_report_payload { tampered with Protocol.signature = "" });
    }
  in
  Alcotest.(check bool) "forged signature" true (verify forged = Error `Bad_signature);
  (* Bad quote caught even with a valid re-signature under the right key
     (defence in depth). *)
  let bad_quote_unsigned = { r with Protocol.quote = Crypto.Sha256.digest "bogus"; signature = "" } in
  let bad_quote =
    { bad_quote_unsigned with
      Protocol.signature =
        Crypto.Rsa.sign kp.secret (Protocol.as_report_payload bad_quote_unsigned);
    }
  in
  Alcotest.(check bool) "bad quote" true (verify bad_quote = Error `Bad_quote)

let test_protocol_codecs_roundtrip () =
  let r = signed_as_report () in
  Alcotest.(check bool) "as_report" true
    (Protocol.decode_as_report (Protocol.encode_as_report r) = Some r);
  let areq = { Protocol.vid = "v"; property = Property.Runtime_integrity; nonce = "n" } in
  Alcotest.(check bool) "attest_request" true
    (Protocol.decode_attest_request (Protocol.encode_attest_request areq) = Some areq);
  let asreq = { Protocol.vid = "v"; server = "s"; property = Property.Runtime_integrity; nonce = "n" } in
  Alcotest.(check bool) "as_request" true
    (Protocol.decode_as_request (Protocol.encode_as_request asreq) = Some asreq);
  let mreq = { Protocol.vid = "v"; requests_raw = "rM"; nonce = "n3" } in
  Alcotest.(check bool) "measure_request" true
    (Protocol.decode_measure_request (Protocol.encode_measure_request mreq) = Some mreq);
  let mresp =
    {
      Protocol.vid = "v"; requests_raw = "rM"; values_raw = "M"; nonce = "n3";
      quote = "q"; signature = "sig"; avk = "avk"; endorsement = "end";
    }
  in
  Alcotest.(check bool) "measure_response" true
    (Protocol.decode_measure_response (Protocol.encode_measure_response mresp) = Some mresp);
  Alcotest.(check bool) "garbage" true (Protocol.decode_as_report "garbage" = None)

let test_quotes_differ () =
  let q_a = Protocol.q3 ~vid:"v" ~requests_raw:"r" ~values_raw:"m" ~nonce:"n" in
  Alcotest.(check bool) "nonce binds" false
    (String.equal q_a (Protocol.q3 ~vid:"v" ~requests_raw:"r" ~values_raw:"m" ~nonce:"n2"));
  Alcotest.(check bool) "values bind" false
    (String.equal q_a (Protocol.q3 ~vid:"v" ~requests_raw:"r" ~values_raw:"m2" ~nonce:"n"))

(* --- Batched quotes -------------------------------------------------------------------- *)

(* A full batch envelope the way a cloud server builds one: three reports
   under a single Merkle root, one session signature over root||N3. *)
let build_batch () =
  let pca = Privacy_ca.create ~seed:"pca-batch" ~bits:512 () in
  let tm = Tpm.Backend.create Tpm.Backend.Classic ~key_bits:512 ~seed:"batch-srv" () in
  Privacy_ca.enroll_server pca ~name:"server-1" (Tpm.Backend.identity_public tm);
  let session = Tpm.Backend.begin_session tm in
  let cert =
    match
      Privacy_ca.certify_attestation_key pca ~key:session.public
        ~endorsement:session.endorsement
    with
    | Ok c -> c
    | Error `Unknown_server -> Alcotest.fail "certify failed"
  in
  let nonce = "N3-batch" in
  let specs =
    List.init 3 (fun i ->
        (Printf.sprintf "vm-%d" i, Printf.sprintf "rM-%d" i, Printf.sprintf "M-%d" i))
  in
  let leaves =
    List.map
      (fun (vid, rm, m) -> Protocol.q3 ~vid ~requests_raw:rm ~values_raw:m ~nonce)
      specs
  in
  let root = Crypto.Merkle.root leaves in
  let items =
    List.mapi
      (fun i (vid, rm, m) ->
        {
          Protocol.bi_vid = vid;
          bi_requests_raw = rm;
          bi_values_raw = m;
          bi_proof = Crypto.Merkle.proof leaves i;
        })
      specs
  in
  let br =
    {
      Protocol.br_items = items;
      br_nonce = nonce;
      br_root = root;
      br_signature = Option.get (Tpm.Backend.quote_batch tm session ~root ~nonce);
      br_avk = Crypto.Rsa.public_to_string session.public;
      br_endorsement = session.endorsement;
    }
  in
  (pca, cert, specs, br)

let test_batch_envelope_and_items_verify () =
  let pca, cert, specs, br = build_batch () in
  Alcotest.(check bool) "one envelope check covers the batch" true
    (Protocol.verify_batch_envelope ~anchor:(Protocol.Privacy_ca (Privacy_ca.public pca, cert))
       ~expected_nonce:br.Protocol.br_nonce br
    = Ok ());
  List.iteri
    (fun i item ->
      let _, rm, _ = List.nth specs i in
      Alcotest.(check bool)
        (Printf.sprintf "item %d verifies" i)
        true
        (Protocol.verify_batch_item ~root:br.Protocol.br_root
           ~nonce:br.Protocol.br_nonce ~expected_requests:rm item
        = Ok ()))
    br.Protocol.br_items;
  (* Wrong nonce is caught at the envelope. *)
  Alcotest.(check bool) "stale nonce rejected" true
    (Protocol.verify_batch_envelope ~anchor:(Protocol.Privacy_ca (Privacy_ca.public pca, cert))
       ~expected_nonce:"N3-stale" br
    <> Ok ())

let test_batch_tampered_proof_isolated () =
  (* A cheating aggregator holds valid session keys, so the envelope still
     verifies — but swapping one report's inclusion proof makes exactly
     that report fail appraisal while its batch mates stand. *)
  let _, _, specs, br = build_batch () in
  let root = br.Protocol.br_root and nonce = br.Protocol.br_nonce in
  let tampered =
    match br.Protocol.br_items with
    | [ a; b; c ] -> [ a; { b with Protocol.bi_proof = c.Protocol.bi_proof }; c ]
    | _ -> assert false
  in
  List.iteri
    (fun i item ->
      let _, rm, _ = List.nth specs i in
      let got = Protocol.verify_batch_item ~root ~nonce ~expected_requests:rm item in
      if i = 1 then
        Alcotest.(check bool) "tampered item rejected" true (got = Error `Bad_quote)
      else
        Alcotest.(check bool) (Printf.sprintf "sibling %d still accepted" i) true (got = Ok ()))
    tampered;
  (* Substituted measurement values likewise die on the inclusion proof. *)
  let forged = { (List.hd br.Protocol.br_items) with Protocol.bi_values_raw = "M-forged" } in
  Alcotest.(check bool) "forged values rejected" true
    (Protocol.verify_batch_item ~root ~nonce ~expected_requests:"rM-0" forged
    = Error `Bad_quote)

let test_batch_codecs_roundtrip () =
  let bm = { Protocol.bm_items = [ ("vm-1", "r1"); ("vm-2", "r2") ]; bm_nonce = "n3" } in
  Alcotest.(check bool) "batch_measure_request" true
    (Protocol.decode_batch_measure_request (Protocol.encode_batch_measure_request bm)
    = Some bm);
  let _, _, _, br = build_batch () in
  Alcotest.(check bool) "batch_measure_response" true
    (Protocol.decode_batch_measure_response (Protocol.encode_batch_measure_response br)
    = Some br);
  let ba =
    {
      Protocol.ba_server = "server-1";
      ba_items = [ ("vm-1", Property.Runtime_integrity); ("vm-2", Property.Cpu_availability) ];
      ba_nonce = "n2";
    }
  in
  Alcotest.(check bool) "batch_as_request" true
    (Protocol.decode_batch_as_request (Protocol.encode_batch_as_request ba) = Some ba);
  Alcotest.(check bool) "garbage" true (Protocol.decode_batch_measure_response "junk" = None);
  (* The batch magic never collides with the single-shot AS request codec. *)
  Alcotest.(check bool) "magics disjoint" true
    (Protocol.decode_as_request (Protocol.encode_batch_as_request ba) = None)

(* --- Stale e-vTPM re-check ------------------------------------------------------------ *)

(* An AS facing a cloud server whose restored, not re-registered e-vTPM
   session-signs every reply, in either shape, around the nonce [echo n3]
   instead of the AS's N3. *)
let stale_vtpm_as ~echo =
  let net = Net.Network.create ~seed:7 () in
  let ca = Net.Ca.create ~seed:"stale" ~bits:512 ~name:"root" () in
  let pca = Privacy_ca.create ~seed:"stale" ~bits:512 () in
  let dev = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed:"stale-vtpm" () in
  Privacy_ca.enroll_evtpm pca ~name:"server-1" (Tpm.Backend.identity_public dev) ~epoch:0;
  Result.get_ok (Tpm.Backend.restore_state dev (Result.get_ok (Tpm.Backend.save_state dev)));
  let measure plaintext =
    let session = Tpm.Backend.begin_session dev in
    let avk = Crypto.Rsa.public_to_string session.Tpm.Backend.public in
    let endorsement = session.Tpm.Backend.endorsement in
    match Protocol.decode_batch_measure_request plaintext with
    | Some bm ->
        (* A stale batch is judged on its envelope alone; items are only counted. *)
        let nonce = echo bm.Protocol.bm_nonce and root = "root" in
        let item (bi_vid, bi_requests_raw) =
          { Protocol.bi_vid; bi_requests_raw; bi_values_raw = "";
            bi_proof = Crypto.Merkle.proof [ root ] 0 }
        in
        Protocol.encode_batch_measure_response
          { Protocol.br_items = List.map item bm.Protocol.bm_items; br_nonce = nonce;
            br_root = root;
            br_signature = Option.get (Tpm.Backend.quote_batch dev session ~root ~nonce);
            br_avk = avk; br_endorsement = endorsement }
    | None ->
        let req = Option.get (Protocol.decode_measure_request plaintext) in
        let vid = req.Protocol.vid and requests_raw = req.requests_raw and nonce = echo req.nonce in
        let quote = Protocol.q3 ~vid ~requests_raw ~values_raw:"" ~nonce in
        let unsigned =
          { Protocol.vid; requests_raw; values_raw = ""; nonce; quote; signature = ""; avk;
            endorsement }
        in
        let payload = Protocol.measure_response_payload unsigned in
        Protocol.encode_measure_response
          {
            unsigned with
            signature = Option.get (Tpm.Backend.sign_with_session dev session payload);
          }
  in
  let on_request ~peer:_ plaintext =
    Wire.Codec.encode (fun e -> Wire.Codec.Enc.u8 e 1; Wire.Codec.Enc.str e (measure plaintext))
  in
  let identity = Net.Secure_channel.Identity.make ca ~seed:"srv" ~bits:512 ~name:"server-1" () in
  let srv =
    Net.Secure_channel.Server.create ~identity ~ca:(Net.Ca.public ca) ~seed:"srv"
      ~accept:(fun _ -> true) ~on_request
  in
  Net.Network.register net "att:server-1" (Net.Secure_channel.Server.handle srv);
  let refs = Interpret.default_refs in
  Attestation_server.create ~net ~ca ~pca ~refs ~seed:"as" ~key_bits:512
    ~clock:(fun () -> 0) ~vm_image:(fun _ -> None) ~backend_of:(fun _ -> Tpm.Backend.Evtpm) ()

(* A stale binding is only recognised, never certified, so the session
   signature and the N3 echo are all that keep an old reply from becoming
   a verdict: both shapes must check both. *)
let test_stale_session_checks_n3 () =
  let status (r : Protocol.as_report) = r.Protocol.report.Report.status in
  let items = [ ("vm-1", Property.Startup_integrity); ("vm-2", Property.Runtime_integrity) ] in
  let single as_ =
    let vid, property = List.hd items in
    Result.map (fun r -> [ status r ])
      (fst (Attestation_server.attest as_ ~vid ~server:"server-1" ~property ~nonce:"N2"))
  in
  let batch as_ =
    Result.map (List.map (fun (_, _, r) -> status (Result.get_ok r)))
      (fst (Attestation_server.attest_batch as_ ~server:"server-1" ~items ~nonce:"N2"))
  in
  let stale = function
    | Report.Compromised why -> String.starts_with ~prefix:"vtpm-stale-binding" why
    | _ -> false
  in
  List.iter
    (fun (shape, appraise) ->
      (match appraise (stale_vtpm_as ~echo:Fun.id) with
      | Ok statuses ->
          Alcotest.(check bool) (shape ^ ": N3 echoed") true (List.for_all stale statuses)
      | Error e -> Alcotest.failf "%s: %a" shape Attestation_server.pp_error e);
      match appraise (stale_vtpm_as ~echo:(fun _ -> "not-N3")) with
      | Error (`Verification `Nonce_mismatch) -> ()
      | Error e -> Alcotest.failf "%s: %a" shape Attestation_server.pp_error e
      | Ok _ -> Alcotest.failf "%s: a reply echoing another nonce was accepted" shape)
    [ ("single", single); ("batch", batch) ]

(* --- Policy --------------------------------------------------------------------------- *)

let policy_db () =
  let db = Database.create () in
  Database.add_server db { Database.name = "secure-big"; secure = true; backend = Tpm.Backend.Classic; monitoring = Property.all };
  Database.add_server db
    { Database.name = "secure-small"; secure = true; backend = Tpm.Backend.Classic; monitoring = Property.all };
  Database.add_server db { Database.name = "legacy"; secure = false; backend = Tpm.Backend.Classic; monitoring = [] };
  db

let free_mem_of assoc name = List.assoc_opt name assoc

let test_policy_property_filter () =
  let db = policy_db () in
  let free = free_mem_of [ ("secure-big", 10000); ("secure-small", 4000); ("legacy", 50000) ] in
  (* With properties requested, the huge legacy server is filtered out. *)
  (match
     Policy.select ~db ~free_mem:free ~properties:[ Property.Runtime_integrity ]
       ~flavor:Hypervisor.Flavor.small ()
   with
  | Ok d ->
      Alcotest.(check string) "secure server chosen" "secure-big" d.Policy.host;
      Alcotest.(check int) "two candidates" 2 d.Policy.candidates;
      Alcotest.(check int) "three considered" 3 d.Policy.considered
  | Error `No_qualified_server -> Alcotest.fail "expected a host");
  (* Without properties the weigher is free to pick the legacy box. *)
  match
    Policy.select ~db ~free_mem:free ~properties:[] ~flavor:Hypervisor.Flavor.small ()
  with
  | Ok d -> Alcotest.(check string) "most free memory wins" "legacy" d.Policy.host
  | Error `No_qualified_server -> Alcotest.fail "expected a host"

let test_policy_memory_filter () =
  let db = policy_db () in
  let free = free_mem_of [ ("secure-big", 1000); ("secure-small", 1000); ("legacy", 1000) ] in
  match
    Policy.select ~db ~free_mem:free ~properties:[] ~flavor:Hypervisor.Flavor.small ()
  with
  | Error `No_qualified_server -> ()
  | Ok _ -> Alcotest.fail "nothing has 2 GB free"

let test_policy_exclusion () =
  let db = policy_db () in
  let free = free_mem_of [ ("secure-big", 10000); ("secure-small", 4000) ] in
  match
    Policy.select ~db ~free_mem:free ~properties:[ Property.Cpu_availability ]
      ~flavor:Hypervisor.Flavor.small ~exclude:[ "secure-big" ] ()
  with
  | Ok d -> Alcotest.(check string) "excluded host skipped" "secure-small" d.Policy.host
  | Error `No_qualified_server -> Alcotest.fail "expected a host"

let test_property_filter_unit () =
  let secure = { Database.name = "s"; secure = true; backend = Tpm.Backend.Classic; monitoring = [ Property.Runtime_integrity ] } in
  let insecure = { Database.name = "i"; secure = false; backend = Tpm.Backend.Classic; monitoring = [] } in
  Alcotest.(check bool) "supported" true (Policy.property_filter secure [ Property.Runtime_integrity ]);
  Alcotest.(check bool) "unsupported property" false
    (Policy.property_filter secure [ Property.Cpu_availability ]);
  Alcotest.(check bool) "insecure fails any" false (Policy.property_filter insecure [ Property.Runtime_integrity ]);
  Alcotest.(check bool) "empty request ok anywhere" true (Policy.property_filter insecure [])

(* --- Database ------------------------------------------------------------------------- *)

let test_database_crud () =
  let db = Database.create () in
  let r =
    {
      Database.vid = "v1"; owner = "alice"; image_name = "ubuntu";
      flavor = Hypervisor.Flavor.small; properties = [ Property.Startup_integrity ];
      host = None; state = Database.Building;
    }
  in
  Database.add_vm db r;
  Alcotest.(check bool) "found" true (Database.vm db "v1" <> None);
  Database.set_host db ~vid:"v1" (Some "server-1");
  Database.set_state db ~vid:"v1" Database.Active;
  Alcotest.(check bool) "host" true ((Option.get (Database.vm db "v1")).Database.host = Some "server-1");
  Alcotest.(check int) "vms_on" 1 (List.length (Database.vms_on db "server-1"));
  Alcotest.(check int) "vms_on other" 0 (List.length (Database.vms_on db "server-2"));
  Database.remove_vm db ~vid:"v1";
  Alcotest.(check bool) "removed" true (Database.vm db "v1" = None);
  Alcotest.(check int) "empty listing" 0 (List.length (Database.vms db))

(* --- Interpretation ---------------------------------------------------------------------- *)

let refs = Interpret.default_refs

let test_interpret_requests_mapping () =
  Alcotest.(check int) "startup needs 2 measurements" 2
    (List.length (Interpret.requests_for refs Property.Startup_integrity));
  Alcotest.(check int) "covert defaults to one source" 1
    (List.length (Interpret.requests_for refs Property.Covert_channel_free));
  let both = { refs with Interpret.covert_sources = [ Interpret.Cpu_bursts; Interpret.Cache_misses ] } in
  Alcotest.(check int) "two sources when configured" 2
    (List.length (Interpret.requests_for both Property.Covert_channel_free))

let test_interpret_startup () =
  let golden_p = Hypervisor.Server.golden_platform_measurement in
  let golden_i = Hypervisor.Image.golden_hash ~name:"ubuntu" in
  let status v =
    fst (Interpret.interpret refs ~image_name:(Some "ubuntu") Property.Startup_integrity v)
  in
  Alcotest.(check bool) "healthy" true
    (status
       [ Monitors.Measurement.Measured_platform golden_p;
         Monitors.Measurement.Measured_image golden_i ]
    = Report.Healthy);
  (match
     status
       [ Monitors.Measurement.Measured_platform (Crypto.Sha256.digest "evil");
         Monitors.Measurement.Measured_image golden_i ]
   with
  | Report.Compromised why ->
      Alcotest.(check bool) "platform named" true (String.length why > 0 && String.sub why 0 8 = "platform")
  | _ -> Alcotest.fail "expected platform compromise");
  match
    status
      [ Monitors.Measurement.Measured_platform golden_p;
        Monitors.Measurement.Measured_image (Crypto.Sha256.digest "evil") ]
  with
  | Report.Compromised _ -> ()
  | _ -> Alcotest.fail "expected image compromise"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_interpret_runtime_integrity () =
  let status kernel visible =
    fst
      (Interpret.interpret refs ~image_name:None Property.Runtime_integrity
         [ Monitors.Measurement.Measured_tasks { kernel; visible } ])
  in
  Alcotest.(check bool) "clean" true (status [ "a"; "b" ] [ "a"; "b" ] = Report.Healthy);
  match status [ "a"; "b"; "rootkit" ] [ "a"; "b" ] with
  | Report.Compromised why -> Alcotest.(check bool) "names it" true (contains why "rootkit")
  | _ -> Alcotest.fail "expected compromise"

let test_interpret_covert_channel () =
  let counts_bimodal = Array.make 30 0 in
  counts_bimodal.(4) <- 50;
  counts_bimodal.(19) <- 50;
  (match Interpret.histogram_verdict refs counts_bimodal with
  | Report.Compromised _, _ -> ()
  | _ -> Alcotest.fail "bimodal must be flagged");
  let counts_benign = Array.make 30 0 in
  counts_benign.(29) <- 100;
  (match Interpret.histogram_verdict refs counts_benign with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "unimodal must pass");
  let counts_sparse = Array.make 30 0 in
  counts_sparse.(4) <- 3;
  (match Interpret.histogram_verdict refs counts_sparse with
  | Report.Unknown _, _ -> ()
  | _ -> Alcotest.fail "too few samples must be Unknown");
  (* Thresholds are honoured: nearby peaks below the separation cut pass. *)
  let counts_near = Array.make 30 0 in
  counts_near.(25) <- 50;
  counts_near.(29) <- 50;
  match Interpret.histogram_verdict refs counts_near with
  | Report.Healthy, _ -> ()
  | Report.Compromised _, _ -> Alcotest.fail "nearby peaks should not trip the detector"
  | Report.Unknown _, _ -> Alcotest.fail "should be decidable"

let test_interpret_cache_verdict () =
  (* Alternating quiet/loud windows: the signalling pattern. *)
  let signalling = Array.init 60 (fun i -> if i mod 2 = 0 then 0 else 128) in
  (match Interpret.cache_verdict refs signalling with
  | Report.Compromised _, _ -> ()
  | _ -> Alcotest.fail "signalling must be flagged");
  (* Steady moderate misses: benign. *)
  let steady = Array.make 60 40 in
  (match Interpret.cache_verdict refs steady with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "steady workload must pass");
  (* No activity: benign. *)
  (match Interpret.cache_verdict refs (Array.make 60 0) with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "idle must pass");
  (* Too few windows: unknown. *)
  match Interpret.cache_verdict refs (Array.make 5 100) with
  | Report.Unknown _, _ -> ()
  | _ -> Alcotest.fail "short period must be Unknown"

let test_interpret_covert_combined () =
  let both = { refs with Interpret.covert_sources = [ Interpret.Cpu_bursts; Interpret.Cache_misses ] } in
  let benign_hist = Array.make 30 0 in
  benign_hist.(29) <- 100;
  let signalling = Array.init 60 (fun i -> if i mod 2 = 0 then 0 else 128) in
  (* CPU source clean but the cache source is dirty: still flagged. *)
  (match
     Interpret.interpret both ~image_name:None Property.Covert_channel_free
       [ Monitors.Measurement.Measured_histogram benign_hist;
         Monitors.Measurement.Measured_miss_windows signalling ]
   with
  | Report.Compromised _, _ -> ()
  | _ -> Alcotest.fail "any dirty source must condemn");
  (* Both clean: healthy. *)
  match
    Interpret.interpret both ~image_name:None Property.Covert_channel_free
      [ Monitors.Measurement.Measured_histogram benign_hist;
        Monitors.Measurement.Measured_miss_windows (Array.make 60 0) ]
  with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "clean sources must pass"

let cpu_measure ~vtime ~steal =
  [ Monitors.Measurement.Measured_cpu { vtime; steal; window = Sim.Time.sec 1; vcpus = 1 } ]

let test_interpret_availability () =
  let status v = fst (Interpret.interpret refs ~image_name:None Property.Cpu_availability v) in
  (* Starved: little runtime, huge steal. *)
  (match status (cpu_measure ~vtime:(Sim.Time.ms 80) ~steal:(Sim.Time.ms 900)) with
  | Report.Compromised _ -> ()
  | _ -> Alcotest.fail "starved VM must be flagged");
  (* Fair contention: 50% usage. *)
  Alcotest.(check bool) "fair share healthy" true
    (status (cpu_measure ~vtime:(Sim.Time.ms 500) ~steal:(Sim.Time.ms 500)) = Report.Healthy);
  (* Voluntarily idle: low usage but no steal -> healthy. *)
  Alcotest.(check bool) "idle VM healthy" true
    (status (cpu_measure ~vtime:(Sim.Time.ms 50) ~steal:(Sim.Time.ms 10)) = Report.Healthy)

let test_interpret_shape_mismatch () =
  match
    Interpret.interpret refs ~image_name:None Property.Runtime_integrity
      (cpu_measure ~vtime:1 ~steal:1)
  with
  | Report.Unknown _, _ -> ()
  | _ -> Alcotest.fail "wrong measurement shape must be Unknown"

let test_interpret_ima () =
  let pristine name = (name, Hypervisor.Guest_os.pristine_hash name) in
  (* Clean log. *)
  (match Interpret.ima_verdict refs [ pristine "init"; pristine "sshd" ] with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "pristine log must pass");
  (* Unknown binary. *)
  (match Interpret.ima_verdict refs [ pristine "init"; ("cryptominer", Crypto.Sha256.digest "x") ] with
  | Report.Compromised why, _ ->
      Alcotest.(check bool) "names the binary" true (contains why "cryptominer")
  | _ -> Alcotest.fail "unknown binary must be flagged");
  (* Trojaned well-known binary: right name, wrong hash. *)
  match Interpret.ima_verdict refs [ ("sshd", Crypto.Sha256.digest "backdoor") ] with
  | Report.Compromised why, _ -> Alcotest.(check bool) "names sshd" true (contains why "sshd")
  | _ -> Alcotest.fail "trojaned binary must be flagged"

let test_interpret_integrity_combined () =
  let both =
    { refs with Interpret.integrity_sources = [ Interpret.Task_diff; Interpret.Ima_whitelist ] }
  in
  Alcotest.(check int) "two requests when configured" 2
    (List.length (Interpret.requests_for both Property.Runtime_integrity));
  let pristine name = (name, Hypervisor.Guest_os.pristine_hash name) in
  (* Task diff clean but IMA dirty: flagged. *)
  (match
     Interpret.interpret both ~image_name:None Property.Runtime_integrity
       [ Monitors.Measurement.Measured_tasks { kernel = [ "init"; "miner" ]; visible = [ "init"; "miner" ] };
         Monitors.Measurement.Measured_ima [ pristine "init"; ("miner", Crypto.Sha256.digest "m") ] ]
   with
  | Report.Compromised _, _ -> ()
  | _ -> Alcotest.fail "IMA source must condemn");
  (* Both clean: healthy. *)
  match
    Interpret.interpret both ~image_name:None Property.Runtime_integrity
      [ Monitors.Measurement.Measured_tasks { kernel = [ "init" ]; visible = [ "init" ] };
        Monitors.Measurement.Measured_ima [ pristine "init" ] ]
  with
  | Report.Healthy, _ -> ()
  | _ -> Alcotest.fail "clean sources must pass"

(* --- Commands codec ------------------------------------------------------------------- *)

let test_commands_roundtrip () =
  let cases =
    [
      Commands.Launch
        { image = "ubuntu"; flavor = "small"; properties = Property.all; workload = "db" };
      Commands.Attest_current { Protocol.vid = "v"; property = Property.Cpu_availability; nonce = "n" };
      Commands.Attest_periodic
        {
          vid = "v";
          property = Property.Runtime_integrity;
          schedule = Schedule.fixed (Sim.Time.sec 5);
          nonce = "n";
        };
      Commands.Attest_periodic
        {
          vid = "v";
          property = Property.Covert_channel_free;
          schedule = Schedule.random ~min:(Sim.Time.sec 2) ~max:(Sim.Time.sec 9);
          nonce = "n";
        };
      Commands.Stop_periodic { vid = "v"; property = Property.Runtime_integrity; nonce = "n" };
      Commands.Terminate { vid = "v" };
      Commands.Describe { vid = "v" };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "command roundtrip" true
        (Commands.decode_command (Commands.encode_command c) = Some c))
    cases;
  let replies =
    [
      Commands.Ok_launch { vid = "v"; stages = [ ("scheduling", 100); ("spawning", 2000) ] };
      Commands.Ok_ack;
      Commands.Ok_describe { state = "active"; properties = [ Property.Startup_integrity ] };
      Commands.Err "nope";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "reply roundtrip" true
        (Commands.decode_reply (Commands.encode_reply r) = Some r))
    replies;
  Alcotest.(check bool) "garbage command" true (Commands.decode_command "junk" = None)

(* --- Schedule ------------------------------------------------------------------------ *)

let test_schedule_fixed () =
  let d = Crypto.Drbg.create ~seed:"sch" in
  let s = Schedule.fixed (Sim.Time.sec 5) in
  Alcotest.(check int) "constant delay" (Sim.Time.sec 5) (Schedule.next_delay s d);
  Alcotest.(check int) "min period" (Sim.Time.sec 5) (Schedule.min_period s)

let test_schedule_random_bounds () =
  let d = Crypto.Drbg.create ~seed:"sch2" in
  let s = Schedule.random ~min:(Sim.Time.sec 1) ~max:(Sim.Time.sec 4) in
  let delays = List.init 200 (fun _ -> Schedule.next_delay s d) in
  List.iter
    (fun delay ->
      Alcotest.(check bool) "in bounds" true
        (delay >= Sim.Time.sec 1 && delay <= Sim.Time.sec 4))
    delays;
  Alcotest.(check bool) "varies" true (List.length (List.sort_uniq compare delays) > 10);
  Alcotest.(check int) "min period" (Sim.Time.sec 1) (Schedule.min_period s)

let test_schedule_random_invalid () =
  Alcotest.check_raises "max < min" (Invalid_argument "Schedule.random: need 0 < min <= max")
    (fun () -> ignore (Schedule.random ~min:(Sim.Time.sec 5) ~max:(Sim.Time.sec 1)))

let schedule_codec_roundtrip =
  QCheck.Test.make ~name:"schedule codec roundtrip" ~count:100
    QCheck.(pair (int_range 1 1000000) (int_range 0 1000000))
    (fun (a, span) ->
      let cases = [ Schedule.Fixed a; Schedule.Random_interval { min = a; max = a + span } ] in
      List.for_all
        (fun sch ->
          Wire.Codec.decode (Wire.Codec.encode (fun e -> Schedule.encode e sch)) Schedule.decode
          = sch)
        cases)

(* --- Protocol fuzzing -------------------------------------------------------------------- *)

(* Any single byte mutation of a signed report must fail verification (or
   fail to parse) — the signed chain has no malleable bytes. *)
let as_report_fuzz =
  QCheck.Test.make ~name:"byte mutations of a signed AS report never verify" ~count:120
    QCheck.(pair small_nat (int_range 0 255))
    (fun (pos, delta) ->
      QCheck.assume (delta land 0xff <> 0);
      let kp = Lazy.force rsa in
      let r = signed_as_report () in
      let encoded = Protocol.encode_as_report r in
      let pos = pos mod String.length encoded in
      let b = Bytes.of_string encoded in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (delta land 0xff)));
      match Protocol.decode_as_report (Bytes.to_string b) with
      | None -> true (* no longer parses: fine *)
      | Some mutant ->
          Protocol.verify_as_report ~key:kp.public ~expected_vid:"vm-1"
            ~expected_server:"server-1" ~expected_property:Property.Cpu_availability
            ~expected_nonce:"N2" mutant
          <> Ok ())

(* --- Lifecycle costs --------------------------------------------------------------------- *)

let test_lifecycle_shapes () =
  Alcotest.(check bool) "bigger image spawns slower" true
    (Lifecycle.spawning_time Hypervisor.Image.ubuntu Hypervisor.Flavor.small
    > Lifecycle.spawning_time Hypervisor.Image.cirros Hypervisor.Flavor.small);
  Alcotest.(check bool) "bigger flavor suspends slower" true
    (Lifecycle.suspension_time Hypervisor.Flavor.large
    > Lifecycle.suspension_time Hypervisor.Flavor.small);
  let net = Net.Network.create ~seed:1 () in
  Alcotest.(check bool) "migration dwarfs termination" true
    (Lifecycle.migration_transfer_time ~net Hypervisor.Flavor.small
    > (3 * Lifecycle.termination_time ()));
  Alcotest.(check bool) "more candidates, slower scheduling" true
    (Lifecycle.scheduling_time ~considered:10 > Lifecycle.scheduling_time ~considered:1)

let () =
  Alcotest.run "core"
    [
      ( "property-report",
        [
          Alcotest.test_case "property strings" `Quick test_property_strings;
          qtest property_codec_roundtrip;
          qtest report_codec_roundtrip;
          Alcotest.test_case "is_healthy" `Quick test_report_is_healthy;
        ] );
      ("ledger", [ Alcotest.test_case "accumulates" `Quick test_ledger ]);
      ( "privacy-ca",
        [
          Alcotest.test_case "certify enrolled" `Quick test_privacy_ca;
          Alcotest.test_case "mismatched key" `Quick test_privacy_ca_mismatched_key;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "as_report verifies" `Quick test_as_report_verifies;
          Alcotest.test_case "rejections" `Quick test_as_report_rejections;
          Alcotest.test_case "codecs roundtrip" `Quick test_protocol_codecs_roundtrip;
          Alcotest.test_case "quotes bind fields" `Quick test_quotes_differ;
        ] );
      ( "batch-quote",
        [
          Alcotest.test_case "envelope + items verify" `Quick
            test_batch_envelope_and_items_verify;
          Alcotest.test_case "tampered proof isolated" `Quick
            test_batch_tampered_proof_isolated;
          Alcotest.test_case "codecs roundtrip" `Quick test_batch_codecs_roundtrip;
        ] );
      ( "stale-vtpm",
        [
          Alcotest.test_case "session signature and N3 checked" `Quick
            test_stale_session_checks_n3;
        ] );
      ( "policy",
        [
          Alcotest.test_case "property filter" `Quick test_policy_property_filter;
          Alcotest.test_case "memory filter" `Quick test_policy_memory_filter;
          Alcotest.test_case "exclusion" `Quick test_policy_exclusion;
          Alcotest.test_case "property_filter unit" `Quick test_property_filter_unit;
        ] );
      ("database", [ Alcotest.test_case "crud" `Quick test_database_crud ]);
      ( "interpret",
        [
          Alcotest.test_case "P->rM mapping" `Quick test_interpret_requests_mapping;
          Alcotest.test_case "startup integrity" `Quick test_interpret_startup;
          Alcotest.test_case "runtime integrity" `Quick test_interpret_runtime_integrity;
          Alcotest.test_case "covert channel" `Quick test_interpret_covert_channel;
          Alcotest.test_case "cache verdict" `Quick test_interpret_cache_verdict;
          Alcotest.test_case "covert combined sources" `Quick test_interpret_covert_combined;
          Alcotest.test_case "IMA whitelist" `Quick test_interpret_ima;
          Alcotest.test_case "integrity combined sources" `Quick
            test_interpret_integrity_combined;
          Alcotest.test_case "availability" `Quick test_interpret_availability;
          Alcotest.test_case "shape mismatch" `Quick test_interpret_shape_mismatch;
        ] );
      ("commands", [ Alcotest.test_case "roundtrip" `Quick test_commands_roundtrip ]);
      ( "schedule",
        [
          Alcotest.test_case "fixed" `Quick test_schedule_fixed;
          Alcotest.test_case "random bounds" `Quick test_schedule_random_bounds;
          Alcotest.test_case "invalid range" `Quick test_schedule_random_invalid;
          qtest schedule_codec_roundtrip;
        ] );
      ("fuzz", [ qtest as_report_fuzz ]);
      ("lifecycle", [ Alcotest.test_case "cost shapes" `Quick test_lifecycle_shapes ]);
    ]
