(* Tests for the generic Dolev-Yao engine (terms and attacker deduction)
   and for the CloudMonatt protocol model built on it: Copland.Dy run on
   the paper's section 7.2.2 variants, written as phrases. *)

open Copland

let qtest = QCheck_alcotest.to_alcotest

let k = Term.Fresh "k"
let sk = Term.Fresh "sk"
let secret = Term.Fresh "secret"

(* --- Deduction rules ------------------------------------------------------- *)

let test_pair_projection () =
  let know = Deduction.of_list [ Term.Pair (secret, Term.Const "public") ] in
  Alcotest.(check bool) "left component leaks" true (Deduction.derives know secret)

let test_senc_without_key () =
  let know = Deduction.of_list [ Term.Senc (k, secret) ] in
  Alcotest.(check bool) "ciphertext alone keeps secret" false (Deduction.derives know secret)

let test_senc_with_key () =
  let know = Deduction.of_list [ Term.Senc (k, secret); k ] in
  Alcotest.(check bool) "key opens ciphertext" true (Deduction.derives know secret)

let test_senc_key_learned_later () =
  (* Saturation must re-examine old ciphertexts when the key becomes
     derivable through another ciphertext. *)
  let k2 = Term.Fresh "k2" in
  let know = Deduction.of_list [ Term.Senc (k, secret); Term.Senc (k2, k); k2 ] in
  Alcotest.(check bool) "chained decryption" true (Deduction.derives know secret)

let test_aenc () =
  let know = Deduction.of_list [ Term.Aenc (Term.Pub sk, secret) ] in
  Alcotest.(check bool) "without sk" false (Deduction.derives know secret);
  let know = Deduction.add know sk in
  Alcotest.(check bool) "with sk" true (Deduction.derives know secret)

let test_sign_reveals_payload () =
  let know = Deduction.of_list [ Term.Sign (sk, secret) ] in
  Alcotest.(check bool) "signatures are not confidential" true (Deduction.derives know secret);
  Alcotest.(check bool) "but the key stays secret" false (Deduction.derives know sk)

let test_sign_unforgeable () =
  let know = Deduction.of_list [ Term.Sign (sk, Term.Const "m1"); Term.Pub sk ] in
  Alcotest.(check bool) "cannot sign a different message" false
    (Deduction.derives know (Term.Sign (sk, Term.Const "m2")));
  Alcotest.(check bool) "can replay the exact signature" true
    (Deduction.derives know (Term.Sign (sk, Term.Const "m1")))

let test_hash_one_way () =
  let know = Deduction.of_list [ Term.Hash secret ] in
  Alcotest.(check bool) "hash does not invert" false (Deduction.derives know secret);
  Alcotest.(check bool) "hash of known value computable" true
    (Deduction.derives know (Term.Hash (Term.Const "x")))

let test_consts_always_derivable () =
  let know = Deduction.of_list [] in
  Alcotest.(check bool) "constants are public" true (Deduction.derives know (Term.Const "anything"));
  Alcotest.(check bool) "fresh values are not" false (Deduction.derives know (Term.Fresh "n"))

let test_pub_derivable_from_sk () =
  let know = Deduction.of_list [ sk ] in
  Alcotest.(check bool) "pub from sk" true (Deduction.derives know (Term.Pub sk));
  let know2 = Deduction.of_list [ Term.Pub sk ] in
  Alcotest.(check bool) "sk not from pub" false (Deduction.derives know2 sk)

let test_composition () =
  let know = Deduction.of_list [ k; Term.Fresh "m" ] in
  Alcotest.(check bool) "can encrypt known things" true
    (Deduction.derives know (Term.Senc (k, Term.Pair (Term.Fresh "m", Term.Const "tag"))))

let derivability_monotone =
  QCheck.Test.make ~name:"adding knowledge never loses derivability" ~count:50
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let t1 = Term.Fresh (Printf.sprintf "x%d" (a mod 5)) in
      let t2 = Term.Fresh (Printf.sprintf "y%d" (b mod 5)) in
      let know = Deduction.of_list [ Term.Pair (t1, Term.Const "c") ] in
      let know' = Deduction.add know t2 in
      (not (Deduction.derives know t1)) || Deduction.derives know' t1)

(* --- Term utilities ----------------------------------------------------------- *)

let test_pair_list () =
  Alcotest.(check bool) "empty" true (Term.pair_list [] = Term.Const "nil");
  Alcotest.(check bool) "singleton" true (Term.pair_list [ k ] = k);
  Alcotest.(check bool) "nested right" true
    (Term.pair_list [ k; sk; secret ] = Term.Pair (k, Term.Pair (sk, secret)))

let test_subterms () =
  let t = Term.Senc (k, Term.Pair (secret, Term.Hash sk)) in
  let subs = Term.subterms t in
  Alcotest.(check bool) "contains itself" true (List.mem t subs);
  Alcotest.(check bool) "contains leaf" true (List.mem sk subs);
  Alcotest.(check int) "count" 6 (List.length subs)

let test_term_printing () =
  Alcotest.(check string) "render" "senc(~k; (a, ~s))"
    (Term.to_string (Term.Senc (k, Term.Pair (Term.Const "a", Term.Fresh "s"))))

(* --- CloudMonatt model ----------------------------------------------------------- *)

let verify line =
  match Copland.Phrase.of_string line with
  | Ok p -> Copland.Dy.verify p
  | Error e -> Alcotest.fail (Printf.sprintf "phrase %S did not parse: %s" line e)

let all_but_identity_keys =
  [
    "secrecy-channel-keys"; "secrecy-payloads"; "integrity"; "freshness";
    "auth-customer-controller"; "auth-controller-as"; "auth-as-server";
  ]

(* The section 7.2.2 rows: secure, no nonces, no encryption, leaked
   channel keys, and the two unsigned payloads (with leaked keys, so the
   signature is the only guard left). *)
let section_722 = [ "a0.0"; "a-0.0"; "ae0.0"; "ak0.0"; "akm0.0"; "akr0.0" ]

let check_violations line expected =
  let r = verify line in
  Alcotest.(check (list string)) (line ^ " violated set") expected (Copland.Dy.violated r);
  Alcotest.(check bool) (line ^ " attacked iff weakened") (expected <> [])
    (r.Copland.Dy.attacks <> [])

let has_integrity_attack line =
  List.exists (fun a -> a.Copland.Dy.check_id = "integrity") (verify line).Copland.Dy.attacks

let test_secure_protocol_all_hold () =
  check_violations "a0.0" [];
  Alcotest.(check bool) "holds" true (Copland.Dy.holds (verify "a0.0"))

let test_no_nonces_breaks_freshness_only () = check_violations "a-0.0" [ "freshness" ]

let test_no_encryption_breaks_secrecy_and_auth () =
  check_violations "ae0.0"
    [ "secrecy-payloads"; "auth-customer-controller"; "auth-controller-as"; "auth-as-server" ]

let test_compromised_channels_integrity_survives () =
  (* Compromised SSL endpoints: the signature chain and the nonces alone
     keep integrity and freshness. *)
  check_violations "ak0.0"
    [
      "secrecy-channel-keys"; "secrecy-payloads"; "auth-customer-controller";
      "auth-controller-as"; "auth-as-server";
    ];
  let violated = Copland.Dy.violated (verify "ak0.0") in
  Alcotest.(check bool) "integrity survives" false (List.mem "integrity" violated);
  Alcotest.(check bool) "freshness survives" false (List.mem "freshness" violated)

let test_unsigned_measurements_forgeable () =
  check_violations "akm0.0" all_but_identity_keys;
  Alcotest.(check bool) "integrity attack" true (has_integrity_attack "akm0.0")

let test_unsigned_reports_forgeable () =
  check_violations "akr0.0" all_but_identity_keys;
  Alcotest.(check bool) "integrity attack" true (has_integrity_attack "akr0.0")

let test_identity_keys_never_leak () =
  (* In every variant, long-term private keys stay secret: the protocol
     never transmits them in any form. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) (line ^ " keeps identity keys") false
        (List.mem "secrecy-identity-keys" (Copland.Dy.violated (verify line))))
    section_722

let test_check_ids_stable () =
  List.iter
    (fun line ->
      Alcotest.(check (list string)) (line ^ " ids in order") Copland.Dy.check_ids
        (List.map (fun c -> c.Copland.Dy.id) (verify line).Copland.Dy.checks))
    section_722

let test_model_sessions () =
  (* Two sessions share the payloads; only their nonces tell them apart.
     With per-session nonces nothing replays; without, the intercepted
     session-1 quote (same rM, session-1 key, reused nonce) is accepted in
     session 2. *)
  let freshness_attacks line =
    List.filter (fun a -> a.Copland.Dy.check_id = "freshness") (verify line).Copland.Dy.attacks
  in
  Alcotest.(check int) "fresh nonces: no replay" 0 (List.length (freshness_attacks "a0.0"));
  match freshness_attacks "a-0.0" with
  | [ a ] ->
      let subs = Term.subterms a.Copland.Dy.message in
      Alcotest.(check bool) "shared payload rM" true (List.mem (Term.Fresh "rM") subs);
      Alcotest.(check bool) "session-1 key" true (List.mem (Term.Fresh "ASKs.1.0") subs);
      Alcotest.(check bool) "reused nonce" true (List.mem (Term.Const "nonce0") subs)
  | attacks -> Alcotest.failf "expected one replay, got %d" (List.length attacks)

let () =
  Alcotest.run "verifier"
    [
      ( "deduction",
        [
          Alcotest.test_case "pair projection" `Quick test_pair_projection;
          Alcotest.test_case "senc without key" `Quick test_senc_without_key;
          Alcotest.test_case "senc with key" `Quick test_senc_with_key;
          Alcotest.test_case "chained decryption" `Quick test_senc_key_learned_later;
          Alcotest.test_case "aenc" `Quick test_aenc;
          Alcotest.test_case "sign reveals payload" `Quick test_sign_reveals_payload;
          Alcotest.test_case "sign unforgeable" `Quick test_sign_unforgeable;
          Alcotest.test_case "hash one-way" `Quick test_hash_one_way;
          Alcotest.test_case "constants public" `Quick test_consts_always_derivable;
          Alcotest.test_case "pub from sk" `Quick test_pub_derivable_from_sk;
          Alcotest.test_case "composition" `Quick test_composition;
          qtest derivability_monotone;
        ] );
      ( "terms",
        [
          Alcotest.test_case "pair_list" `Quick test_pair_list;
          Alcotest.test_case "subterms" `Quick test_subterms;
          Alcotest.test_case "printing" `Quick test_term_printing;
        ] );
      ( "cloudmonatt-model",
        [
          Alcotest.test_case "secure: all hold" `Quick test_secure_protocol_all_hold;
          Alcotest.test_case "no nonces: freshness only" `Quick
            test_no_nonces_breaks_freshness_only;
          Alcotest.test_case "no encryption: secrecy+auth" `Quick
            test_no_encryption_breaks_secrecy_and_auth;
          Alcotest.test_case "channel compromise: integrity survives" `Quick
            test_compromised_channels_integrity_survives;
          Alcotest.test_case "unsigned measurements forgeable" `Quick
            test_unsigned_measurements_forgeable;
          Alcotest.test_case "unsigned reports forgeable" `Quick test_unsigned_reports_forgeable;
          Alcotest.test_case "identity keys never leak" `Quick test_identity_keys_never_leak;
          Alcotest.test_case "check ids stable" `Quick test_check_ids_stable;
          Alcotest.test_case "model sessions" `Quick test_model_sessions;
        ] );
    ]
