(* Tests for the TPM substrate: PCRs and the Trust Module on every kind. *)

let qtest = QCheck_alcotest.to_alcotest

(* --- PCR ------------------------------------------------------------------ *)

let test_pcr_initial_zero () =
  let p = Tpm.Pcr.create ~count:4 in
  Alcotest.(check string) "starts zeroed" (String.make 32 '\x00') (Tpm.Pcr.read p 0);
  Alcotest.(check int) "count" 4 (Tpm.Pcr.count p)

let test_pcr_extend_changes () =
  let p = Tpm.Pcr.create ~count:2 in
  let v1 = Tpm.Pcr.extend p 0 "m1" in
  Alcotest.(check bool) "changed" false (String.equal v1 (String.make 32 '\x00'));
  Alcotest.(check string) "read matches" v1 (Tpm.Pcr.read p 0);
  Alcotest.(check string) "other register untouched" (String.make 32 '\x00') (Tpm.Pcr.read p 1)

let test_pcr_order_sensitive () =
  let p1 = Tpm.Pcr.create ~count:1 and p2 = Tpm.Pcr.create ~count:1 in
  ignore (Tpm.Pcr.extend p1 0 "a" : string);
  ignore (Tpm.Pcr.extend p1 0 "b" : string);
  ignore (Tpm.Pcr.extend p2 0 "b" : string);
  ignore (Tpm.Pcr.extend p2 0 "a" : string);
  Alcotest.(check bool) "order matters" false (String.equal (Tpm.Pcr.read p1 0) (Tpm.Pcr.read p2 0))

let test_pcr_deterministic () =
  let run () =
    let p = Tpm.Pcr.create ~count:2 in
    ignore (Tpm.Pcr.extend p 0 "hypervisor" : string);
    ignore (Tpm.Pcr.extend p 1 "host-os" : string);
    Tpm.Pcr.composite p [ 0; 1 ]
  in
  Alcotest.(check string) "same chain, same composite" (run ()) (run ())

let test_pcr_composite_selection () =
  let p = Tpm.Pcr.create ~count:3 in
  ignore (Tpm.Pcr.extend p 0 "x" : string);
  let c01 = Tpm.Pcr.composite p [ 0; 1 ] in
  let c0 = Tpm.Pcr.composite p [ 0 ] in
  Alcotest.(check bool) "selection matters" false (String.equal c01 c0);
  (* duplicates and order are normalised *)
  Alcotest.(check string) "sorted/dedup" c01 (Tpm.Pcr.composite p [ 1; 0; 1 ])

let test_pcr_reset () =
  let p = Tpm.Pcr.create ~count:1 in
  ignore (Tpm.Pcr.extend p 0 "x" : string);
  Tpm.Pcr.reset p 0;
  Alcotest.(check string) "reset to zero" (String.make 32 '\x00') (Tpm.Pcr.read p 0)

let test_pcr_bounds () =
  let p = Tpm.Pcr.create ~count:2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Pcr: index out of range") (fun () ->
      ignore (Tpm.Pcr.read p 2))

(* --- Trust Module, on every kind ---------------------------------------------- *)

module B = Tpm.Backend

(* A device of [kind] and its anchor: the check a verifier runs on a
   session's endorsement.  Classic: the identity key over the classic
   payload.  e-vTPM: the identity key over the epoch payload.  CVM: the
   chain against the vendor root; each CVM gets its own root, so another
   device's anchor is another vendor. *)
let device kind ?num_registers ~key_bits ~seed () =
  let root =
    if kind = B.Cvm_report then Some (Tpm.Platform_root.create ~bits:512 ~seed ()) else None
  in
  let dev = B.create ?num_registers ~key_bits ?root kind ~seed () in
  let endorsed (s : B.session) =
    let signed payload =
      Crypto.Rsa.verify (B.identity_public dev) ~signature:s.endorsement payload
    in
    match kind with
    | B.Classic -> signed (B.endorsement_payload s.public)
    | B.Evtpm ->
        signed
          (B.evtpm_endorsement_payload ~epoch:(B.binding_epoch dev) ~stale:(B.stale dev) s.public)
    | B.Cvm_report ->
        Tpm.Platform_root.verify_chain
          ~root:(Tpm.Platform_root.public (Option.get root))
          ~endorsement:s.endorsement ~key:s.public
  in
  (dev, endorsed)

let fixture kind = lazy (device kind ~num_registers:32 ~key_bits:512 ~seed:"test" ())

let test_registers fx () =
  let t, _ = Lazy.force fx in
  B.clear_registers t;
  Alcotest.(check int) "count" 32 (B.num_registers t);
  B.write_register t 3 42;
  B.add_register t 3 8;
  Alcotest.(check int) "write+add" 50 (B.read_registers t).(3);
  B.clear_registers t;
  Alcotest.(check int) "cleared" 0 (B.read_registers t).(3)

let test_register_bounds fx () =
  let t, _ = Lazy.force fx in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Trust_module: register index out of range") (fun () ->
      B.write_register t 32 1)

let test_registers_copy fx () =
  let t, _ = Lazy.force fx in
  B.clear_registers t;
  let snapshot = B.read_registers t in
  snapshot.(0) <- 999;
  Alcotest.(check int) "read_registers returns a copy" 0 (B.read_registers t).(0)

let test_session_sign_verify fx () =
  let t, _ = Lazy.force fx in
  let session = B.begin_session t in
  (match B.sign_with_session t session "measurements" with
  | None -> Alcotest.fail "session should sign"
  | Some s ->
      Alcotest.(check bool) "verifies under AVKs" true
        (Crypto.Rsa.verify session.public ~signature:s "measurements"));
  B.end_session t session;
  Alcotest.(check bool) "ended session refuses" true
    (B.sign_with_session t session "more" = None)

let test_sessions_are_fresh fx () =
  let t, _ = Lazy.force fx in
  let s1 = B.begin_session t in
  let s2 = B.begin_session t in
  Alcotest.(check bool) "fresh keys per attestation" false
    (String.equal
       (Crypto.Rsa.public_to_string s1.public)
       (Crypto.Rsa.public_to_string s2.public))

let test_endorsement_verifies fx () =
  let t, endorsed = Lazy.force fx in
  let session = B.begin_session t in
  Alcotest.(check bool) "endorsement binds AVKs to the anchor" true (endorsed session);
  Alcotest.(check bool) "and only that AVKs" false
    (endorsed { session with public = (B.begin_session t).public })

let test_endorsement_not_transferable kind fx () =
  let t, _ = Lazy.force fx in
  let _, other_endorsed = device kind ~key_bits:512 ~seed:"other" () in
  Alcotest.(check bool) "other device's anchor rejects" false
    (other_endorsed (B.begin_session t))

let test_identity_ops fx () =
  let t, _ = Lazy.force fx in
  let s = B.sign_identity t "channel-auth" in
  Alcotest.(check bool) "identity signature verifies" true
    (Crypto.Rsa.verify (B.identity_public t) ~signature:s "channel-auth");
  let d = Crypto.Drbg.create ~seed:"enc" in
  let c = Crypto.Rsa.encrypt d (B.identity_public t) "premaster" in
  Alcotest.(check (option string)) "identity decrypts" (Some "premaster")
    (B.decrypt_identity t c)

let test_quote_batch fx () =
  let t, _ = Lazy.force fx in
  let session = B.begin_session t in
  let root = Crypto.Merkle.root [ "q1"; "q2"; "q3" ] in
  let nonce = B.random_nonce t in
  (match B.quote_batch t session ~root ~nonce with
  | None -> Alcotest.fail "live session should sign a batch quote"
  | Some s ->
      Alcotest.(check bool) "batch quote verifies under AVKs over the payload" true
        (Crypto.Rsa.verify session.public ~signature:s (B.batch_quote_payload ~root ~nonce));
      Alcotest.(check bool) "bound to the root" false
        (Crypto.Rsa.verify session.public ~signature:s
           (B.batch_quote_payload ~root:(Crypto.Merkle.root [ "qx" ]) ~nonce)));
  B.end_session t session;
  Alcotest.(check bool) "ended session refuses batch quotes" true
    (B.quote_batch t session ~root ~nonce = None)

let test_nonces_fresh fx () =
  let t, _ = Lazy.force fx in
  let n1 = B.random_nonce t in
  let n2 = B.random_nonce t in
  Alcotest.(check int) "16 bytes" 16 (String.length n1);
  Alcotest.(check bool) "fresh" false (String.equal n1 n2)

let trust_module_deterministic kind =
  QCheck.Test.make ~name:"same seed, same identity" ~count:3 QCheck.small_int (fun s ->
      let identity () =
        let t, _ = device kind ~key_bits:256 ~seed:(string_of_int s) () in
        Crypto.Rsa.public_to_string (B.identity_public t)
      in
      String.equal (identity ()) (identity ()))

(* One group per kind; the classic group keeps its historical name. *)
let trust_module_group kind =
  let fx = fixture kind in
  ( (if kind = B.Classic then "trust-module" else "trust-module-" ^ B.kind_to_string kind),
    [
      Alcotest.test_case "registers" `Quick (test_registers fx);
      Alcotest.test_case "register bounds" `Quick (test_register_bounds fx);
      Alcotest.test_case "registers copy" `Quick (test_registers_copy fx);
      Alcotest.test_case "session sign/verify" `Quick (test_session_sign_verify fx);
      Alcotest.test_case "sessions fresh" `Quick (test_sessions_are_fresh fx);
      Alcotest.test_case "endorsement verifies" `Quick (test_endorsement_verifies fx);
      Alcotest.test_case "endorsement not transferable" `Quick
        (test_endorsement_not_transferable kind fx);
      Alcotest.test_case "identity ops" `Quick (test_identity_ops fx);
      Alcotest.test_case "batch quote" `Quick (test_quote_batch fx);
      Alcotest.test_case "nonces fresh" `Quick (test_nonces_fresh fx);
      qtest (trust_module_deterministic kind);
    ] )

let () =
  Alcotest.run "tpm"
    ([
       ( "pcr",
        [
           Alcotest.test_case "initial zero" `Quick test_pcr_initial_zero;
           Alcotest.test_case "extend changes" `Quick test_pcr_extend_changes;
           Alcotest.test_case "order sensitive" `Quick test_pcr_order_sensitive;
           Alcotest.test_case "deterministic" `Quick test_pcr_deterministic;
           Alcotest.test_case "composite selection" `Quick test_pcr_composite_selection;
           Alcotest.test_case "reset" `Quick test_pcr_reset;
           Alcotest.test_case "bounds" `Quick test_pcr_bounds;
         ] );
     ]
    @ List.map trust_module_group B.all_kinds)
