(* Protocol-phrase tests: codec, typing, static estimates, the Controller
   interpreter (including the default phrase's byte-identical wire pin) and
   the per-phrase Dolev-Yao engine. *)

open Core

let hex s = Crypto.Hexs.encode (Crypto.Sha256.digest s)

let parse line =
  match Copland.Phrase.of_string line with
  | Ok p -> p
  | Error e -> Alcotest.fail (Printf.sprintf "phrase %S did not parse: %s" line e)

(* --- Codec ----------------------------------------------------------------- *)

let roundtrip_lines =
  [
    "a0.0";
    "a-3.2";
    "(a0.0>a1.0)";
    "(a0.0&Aa1.1)";
    "(a0.0&Oa1.1)";
    "((a0.0>a0.1)&Qa1.0)";
    "d1:a2.0";
    "d-1:(a2.0>a2.1)";
    "l0:a0.1";
    "l-0:a0.1";
    "d1:l2:(a2.0&Aa2.3)";
    "(l0:a0.0>d1:(a1.0&Q(a1.1>a1.2)))";
    (* each appraisal mark alone, all of them, and mixed with the others *)
    "ae0.0";
    "ak0.0";
    "am0.0";
    "ar0.0";
    "a-ekmr3.2";
    "(a-k0.0>d-1:aer2.1)";
    (* the protocols catalogue and the pinned fuzz repros print unchanged *)
    "(a0.0>a1.1)";
    "(a0.0&Qa1.0)";
    "(a0.0&Aa1.3)";
    "d1:l2:(a2.0&Qa2.1)";
    "(a-0.0>l-1:a1.0)";
    "l0:a0.2";
    "d0:a0.0";
    "d1:a0.0";
    "d-1:a2.0";
  ]

let test_codec_roundtrip () =
  List.iter
    (fun line ->
      let p = parse line in
      Alcotest.(check string) ("canonical " ^ line) line (Copland.Phrase.to_string p);
      match Copland.Phrase.of_string (Copland.Phrase.to_string p) with
      | Ok p' ->
          Alcotest.(check bool) ("roundtrip " ^ line) true (Copland.Phrase.equal p p')
      | Error e -> Alcotest.fail e)
    roundtrip_lines

let test_codec_rejects_garbage () =
  List.iter
    (fun line ->
      match Copland.Phrase.of_string line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" line)
      | Error _ -> ())
    [
      "";
      "a0";
      "a0.";
      "a.0";
      "a0.0x";
      "a0.0 ";
      " a0.0";
      "(a0.0>a1.0";
      "(a0.0>a1.0))";
      "(a0.0a1.0)";
      "(a0.0&Za1.0)";
      "(a0.0&a1.0)";
      "d1a0.0";
      "d:a0.0";
      "l:a0.0";
      "x0.0";
      "a--0.0";
      (* marks repeat, leave their -ekmr order, or sit on a non-appraisal *)
      "aee0.0";
      "akk0.0";
      "amm0.0";
      "arr0.0";
      "a-e-0.0";
      "ake0.0";
      "arm0.0";
      "de1:a0.0";
      "lk0:a0.0";
    ]

let test_phrase_helpers () =
  let p = parse "(l0:a0.0>d1:(a1.0&Q(a1.1>a1.2)))" in
  Alcotest.(check int) "appraisals" 4 (Copland.Phrase.appraisals p);
  Alcotest.(check bool) "not weakened" false (Copland.Phrase.weakened p);
  Alcotest.(check bool) "weakened nonce" true (Copland.Phrase.weakened (parse "a-0.0"));
  Alcotest.(check bool) "weakened deleg" true (Copland.Phrase.weakened (parse "d-0:a0.0"));
  Alcotest.(check bool) "weakened layer" true (Copland.Phrase.weakened (parse "l-0:a0.0"));
  List.iter
    (fun line ->
      Alcotest.(check bool) ("weakened " ^ line) true (Copland.Phrase.weakened (parse line)))
    [ "ae0.0"; "ak0.0"; "am0.0"; "ar0.0"; "d1:(a0.0>ar2.0)" ];
  let leaves = Copland.Phrase.leaves p in
  Alcotest.(check (list int)) "leaf order" [ 0; 1; 2; 3 ]
    (List.map (fun l -> l.Copland.Phrase.index) leaves);
  let last = List.nth leaves 3 in
  Alcotest.(check (option (pair int bool))) "deleg ctx" (Some (1, true)) last.Copland.Phrase.deleg;
  Alcotest.(check (option (pair int bool)))
    "layer ctx of first" (Some (0, true))
    (List.hd leaves).Copland.Phrase.layer

(* --- Typing ---------------------------------------------------------------- *)

let ctx =
  {
    Copland.Typing.vms = 3;
    clusters = 2;
    properties = 4;
    cluster_of = (fun s -> if s = 2 then 1 else 0);
    host_of = (fun s -> s);
  }

let typing_ok line =
  match Copland.Typing.check ctx (parse line) with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "%s should type-check: %s" line (Copland.Typing.error_to_string e))

let typing_err line expected =
  match Copland.Typing.check ctx (parse line) with
  | Ok () -> Alcotest.fail (Printf.sprintf "%s should be ill-typed" line)
  | Error e -> Alcotest.(check bool) (line ^ " error") true (expected e)

let test_typing () =
  typing_ok "a0.0";
  typing_ok "(a0.0>a2.3)";
  typing_ok "d1:a2.0";
  typing_ok "d0:(a0.0&Aa1.0)";
  typing_ok "l0:a0.1";
  typing_ok "l2:a2.0";
  typing_ok "d1:l2:a2.0";
  typing_err "a5.0" (function Copland.Typing.Bad_slot 5 -> true | _ -> false);
  typing_err "a0.9" (function Copland.Typing.Bad_property 9 -> true | _ -> false);
  typing_err "d9:a0.0" (function Copland.Typing.Bad_cluster 9 -> true | _ -> false);
  typing_err "d1:a0.0" (function
    | Copland.Typing.Cluster_mismatch { slot = 0; expected = 1; actual = 0 } -> true
    | _ -> false);
  typing_err "d0:d0:a0.0" (function Copland.Typing.Nested_delegation -> true | _ -> false);
  typing_err "l0:a1.0" (function
    | Copland.Typing.Host_mismatch { slot = 1; layer_slot = 0 } -> true
    | _ -> false)

(* --- Dolev-Yao engine ------------------------------------------------------ *)

let violated_ids line = Copland.Dy.violated (Copland.Dy.verify (parse line))

let test_dy_default_holds () =
  let r = Copland.Dy.verify Copland.Phrase.default in
  Alcotest.(check bool) "all six properties hold" true (Copland.Dy.holds r);
  Alcotest.(check int) "no attacks" 0 (List.length r.Copland.Dy.attacks);
  Alcotest.(check (list string)) "eight checks, canonical order" Copland.Dy.check_ids
    (List.map (fun c -> c.Copland.Dy.id) r.Copland.Dy.checks)

let test_dy_shapes_hold () =
  (* Every *unweakened* shape keeps all properties, whatever the topology
     of composition. *)
  List.iter
    (fun line ->
      let r = Copland.Dy.verify (parse line) in
      Alcotest.(check (list string)) (line ^ " holds") [] (Copland.Dy.violated r))
    [ "(a0.0>a1.0)"; "(a0.0&Aa1.1)"; "d1:a2.0"; "l0:a0.1"; "d1:l2:(a2.0&Qa2.1)" ]

let test_dy_dropped_nonce () =
  let r = Copland.Dy.verify (parse "a-0.0") in
  Alcotest.(check (list string)) "only freshness breaks" [ "freshness" ]
    (Copland.Dy.violated r);
  match r.Copland.Dy.attacks with
  | [] -> Alcotest.fail "expected a concrete replay attack"
  | a :: _ ->
      Alcotest.(check string) "attack on freshness" "freshness" a.Copland.Dy.check_id;
      (* The replayed message is session-1 traffic the attacker already
         holds: the proof must be a direct interception. *)
      (match a.Copland.Dy.proof with
      | Copland.Deduction.Known _ -> ()
      | Copland.Deduction.Build _ -> Alcotest.fail "replay should be intercepted, not built");
      Alcotest.(check bool) "attack pretty-prints" true
        (String.length (Format.asprintf "%a" Copland.Dy.pp_attack a) > 0)

let test_dy_skipped_layer () =
  let violated = violated_ids "l-0:a0.1" in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " violated") true (List.mem id violated))
    [ "secrecy-channel-keys"; "secrecy-payloads"; "integrity"; "auth-as-server" ];
  Alcotest.(check bool) "freshness unaffected" false (List.mem "freshness" violated);
  (* The checked form of the same phrase is safe. *)
  Alcotest.(check (list string)) "checked layer holds" [] (violated_ids "l0:a0.1")

let test_dy_unauth_deleg () =
  let violated = violated_ids "d-1:a2.0" in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " violated") true (List.mem id violated))
    [ "secrecy-payloads"; "integrity"; "auth-controller-as" ];
  Alcotest.(check bool) "channel keys stay secret" false
    (List.mem "secrecy-channel-keys" violated);
  Alcotest.(check (list string)) "authenticated deleg holds" [] (violated_ids "d1:a2.0")

let test_dy_attacks_have_proofs () =
  (* Every weakened phrase yields at least one attack, and every attack's
     proof derivation is non-empty and printable. *)
  List.iter
    (fun line ->
      let r = Copland.Dy.verify (parse line) in
      Alcotest.(check bool) (line ^ " attacked") true (List.length r.Copland.Dy.attacks > 0);
      List.iter
        (fun a ->
          let s = Format.asprintf "%a" Copland.Dy.pp_attack a in
          Alcotest.(check bool) "printable" true (String.length s > 10))
        r.Copland.Dy.attacks)
    [ "a-0.0"; "l-0:a0.1"; "d-1:a2.0"; "(a-0.0>l-1:a1.0)"; "ae0.0"; "ak0.0"; "akm0.0"; "akr0.0" ]

(* --- Interpreter ----------------------------------------------------------- *)

let launch ctl ~properties =
  match
    Controller.launch ctl
      { Controller.owner = "copland"; image = "cirros"; flavor = "small";
        properties; workload = ""; pins = [] }
  with
  | Ok info -> info.Commands.vid
  | Error _ -> Alcotest.fail "launch failed"

let traffic_digest net =
  hex
    (String.concat "|"
       (List.map
          (fun (m : Net.Network.message) -> m.Net.Network.src ^ ">" ^ m.Net.Network.dst ^ ":" ^ m.Net.Network.payload)
          (Net.Network.recorded net)))

(* The default phrase must compile to exactly today's hardcoded flow: same
   wire bytes, pinned by digest against a direct [Controller.attest] run on
   an identically-seeded cloud. *)
let pinned_default_wire_digest =
  "b383830297d1001bdae057ed74839bb943eb71614452ded6e62b61fde722824c"

let build_pin_cloud () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  let ctl = Cloud.controller cloud in
  let vid = launch ctl ~properties:Property.all in
  (cloud, ctl, vid)

let test_interp_default_byte_identical () =
  (* Cloud A: the hardcoded flow. *)
  let _cloud_a, ctl_a, vid_a = build_pin_cloud () in
  let drbg_a = Crypto.Drbg.create ~seed:"copland-pin" in
  let direct, _ =
    Controller.attest ctl_a
      { Protocol.vid = vid_a; property = Property.Startup_integrity;
        nonce = Crypto.Drbg.nonce drbg_a }
  in
  (match direct with Ok _ -> () | Error e -> Alcotest.fail e);
  let digest_a = traffic_digest (Cloud.net _cloud_a) in
  (* Cloud B: the interpreter on the default phrase, same seeds. *)
  let cloud_b, _ctl_b, vid_b = build_pin_cloud () in
  let drbg_b = Crypto.Drbg.create ~seed:"copland-pin" in
  let outcome =
    match Copland.Interp.run ~drbg:drbg_b cloud_b ~vids:[| vid_b |] Copland.Phrase.default with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "one leaf" 1 (List.length outcome.Copland.Interp.leaves);
  (match outcome.Copland.Interp.status with
  | Report.Healthy -> ()
  | s -> Alcotest.fail (Format.asprintf "unexpected status %a" Report.pp_status s));
  let digest_b = traffic_digest (Cloud.net cloud_b) in
  Alcotest.(check string) "default phrase wire-identical to hardcoded flow" digest_a digest_b;
  Alcotest.(check string) "wire digest pinned" pinned_default_wire_digest digest_b

let ledger_compute ledger =
  Ledger.total ledger - Ledger.of_label ledger "network" - Ledger.of_label ledger "as:network"

let run_ok ?drbg cloud ~vids line =
  match Copland.Interp.run ?drbg cloud ~vids (parse line) with
  | Ok o -> o
  | Error e -> Alcotest.fail (line ^ ": " ^ e)

let test_interp_estimate_bounds () =
  let cloud =
    Cloud.build
      ~config:
        { Cloud.default_config with key_bits = 512; num_servers = 3; num_attestation_servers = 2 }
      ()
  in
  let ctl = Cloud.controller cloud in
  let vids = Array.init 3 (fun _ -> launch ctl ~properties:Property.all) in
  let net = Cloud.net cloud in
  List.iter
    (fun line ->
      let phrase = parse line in
      let env = Copland.Env.of_cloud cloud ~vids in
      let est = Copland.Estimate.of_phrase env phrase in
      let before_msgs = Net.Network.message_count net in
      let before_drops = Net.Network.drop_count net in
      let outcome = run_ok cloud ~vids line in
      let msgs = Net.Network.message_count net - before_msgs in
      let compute = ledger_compute outcome.Copland.Interp.ledger in
      Alcotest.(check bool) (line ^ " no drops") true
        (Net.Network.drop_count net = before_drops);
      Alcotest.(check bool)
        (Printf.sprintf "%s messages %d within [%d, %d]" line msgs est.Copland.Estimate.messages_min
           est.Copland.Estimate.messages_max)
        true
        (msgs >= est.Copland.Estimate.messages_min && msgs <= est.Copland.Estimate.messages_max);
      Alcotest.(check bool)
        (Printf.sprintf "%s compute %d within [%d, %d]" line compute
           est.Copland.Estimate.compute_min est.Copland.Estimate.compute_max)
        true
        (compute >= est.Copland.Estimate.compute_min
        && compute <= est.Copland.Estimate.compute_max))
    [
      "a0.0";
      "a0.1";
      "(a0.0>a1.2)";
      "(a0.0&A(a1.0>a2.3))";
      "l0:a0.1";
      (* slots 0 and 2 are round-robin routed to cluster 0; slot 1 to 1 *)
      "d0:(a0.0&Qa2.0)";
      "d1:a1.0";
    ]

let test_interp_rejects_ill_typed () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  let ctl = Cloud.controller cloud in
  let vid = launch ctl ~properties:Property.all in
  let net = Cloud.net cloud in
  let before = Net.Network.message_count net in
  List.iter
    (fun line ->
      match Copland.Interp.run cloud ~vids:[| vid |] (parse line) with
      | Ok _ -> Alcotest.fail (line ^ " should be rejected")
      | Error _ -> ())
    [ "a1.0"; "a0.7"; "d3:a0.0"; "d0:d0:a0.0" ];
  Alcotest.(check int) "no wire traffic for ill-typed phrases" before
    (Net.Network.message_count net)

let test_interp_routed_misroute_is_hard () =
  let cloud =
    Cloud.build
      ~config:
        { Cloud.default_config with key_bits = 512; num_servers = 2; num_attestation_servers = 2 }
      ()
  in
  let ctl = Cloud.controller cloud in
  let vid = launch ctl ~properties:Property.all in
  let host = Option.get (Controller.vm_host ctl ~vid) in
  let cluster = Controller.cluster_of_host ctl ~host in
  let wrong = 1 - cluster in
  (match
     Controller.attest_routed ctl ~cluster
       { Protocol.vid; property = Property.Startup_integrity; nonce = "n-route-1" }
   with
  | Ok _, _ -> ()
  | Error e, _ -> Alcotest.fail ("correct route should succeed: " ^ e));
  match
    Controller.attest_routed ctl ~cluster:wrong
      { Protocol.vid; property = Property.Startup_integrity; nonce = "n-route-2" }
  with
  | Ok _, _ -> Alcotest.fail "misroute must fail"
  | Error e, _ ->
      Alcotest.(check bool) "misroute error names the delegation" true
        (String.length e >= 10 && String.sub e 0 10 = "delegation")

(* Layered attestation over a restored-but-not-rebound vTPM host: the
   checked layer refuses to run the body; the unchecked layer trusts the
   stale host and only the AS-level stale-binding detection saves it. *)
let test_interp_layer_stale_backend () =
  let cloud =
    Cloud.build
      ~config:
        {
          Cloud.default_config with
          key_bits = 512;
          num_servers = 1;
          backend_of = (fun _ -> Tpm.Backend.Evtpm);
        }
      ()
  in
  let ctl = Cloud.controller cloud in
  let vid = launch ctl ~properties:Property.all in
  let host = Option.get (Controller.vm_host ctl ~vid) in
  (* Fresh backend: the checked layer passes through and appraises. *)
  let healthy = run_ok cloud ~vids:[| vid |] "l0:a0.0" in
  Alcotest.(check int) "body ran" 1 (List.length healthy.Copland.Interp.leaves);
  (match healthy.Copland.Interp.status with
  | Report.Healthy -> ()
  | s -> Alcotest.fail (Format.asprintf "fresh layer: %a" Report.pp_status s));
  Alcotest.(check bool) "layer check charged" true
    (Ledger.of_label healthy.Copland.Interp.ledger "layer-appraise" > 0);
  (* Save, restore, do NOT rebind: stale state. *)
  let state = Result.get_ok (Cloud.vtpm_save cloud ~server:host) in
  (match Cloud.vtpm_restore cloud ~server:host state with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let stale = run_ok cloud ~vids:[| vid |] "l0:a0.0" in
  Alcotest.(check int) "checked layer skips the body" 0
    (List.length stale.Copland.Interp.leaves);
  (match stale.Copland.Interp.status with
  | Report.Compromised _ -> ()
  | s -> Alcotest.fail (Format.asprintf "stale layer: %a" Report.pp_status s));
  (* The weakened layer runs the body anyway; the AS-level epoch check
     still catches the stale binding, so the verdict matches — but only
     because the lower layer is paranoid.  The leaves prove the body ran. *)
  let unchecked = run_ok cloud ~vids:[| vid |] "l-0:a0.0" in
  Alcotest.(check int) "unchecked layer runs the body" 1
    (List.length unchecked.Copland.Interp.leaves);
  (match unchecked.Copland.Interp.status with
  | Report.Compromised _ -> ()
  | s -> Alcotest.fail (Format.asprintf "unchecked stale: %a" Report.pp_status s));
  (* Rebind: the layer passes again. *)
  (match Cloud.vtpm_rebind cloud ~server:host with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rebound = run_ok cloud ~vids:[| vid |] "l0:a0.0" in
  match rebound.Copland.Interp.status with
  | Report.Healthy -> ()
  | s -> Alcotest.fail (Format.asprintf "rebound layer: %a" Report.pp_status s)

(* Merge policies over a mixed-health fleet: server-2 runs a vTPM restored
   without rebinding (every appraisal of its VM is Compromised), server-1
   stays pristine. *)
let test_interp_merge_policies () =
  let cloud =
    Cloud.build
      ~config:
        {
          Cloud.default_config with
          key_bits = 512;
          num_servers = 2;
          backend_of = (fun i -> if i = 1 then Tpm.Backend.Evtpm else Tpm.Backend.Classic);
        }
      ()
  in
  let ctl = Cloud.controller cloud in
  let v1 = launch ctl ~properties:Property.all in
  let v2 = launch ctl ~properties:Property.all in
  let host_of v = Option.get (Controller.vm_host ctl ~vid:v) in
  (* Order slots so slot 0 is the classic (healthy) server's VM. *)
  let healthy_vid, stale_vid, stale_host =
    if String.equal (host_of v1) "server-2" then (v2, v1, host_of v1)
    else (v1, v2, host_of v2)
  in
  Alcotest.(check bool) "one VM per server" true
    (not (String.equal (host_of healthy_vid) (host_of stale_vid)));
  let vids = [| healthy_vid; stale_vid |] in
  let state = Result.get_ok (Cloud.vtpm_save cloud ~server:stale_host) in
  (match Cloud.vtpm_restore cloud ~server:stale_host state with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let status line =
    (run_ok cloud ~vids line).Copland.Interp.status
  in
  (match status "(a0.0&Aa1.0)" with
  | Report.Compromised _ -> ()
  | s -> Alcotest.fail (Format.asprintf "All: %a" Report.pp_status s));
  (match status "(a0.0&Oa1.0)" with
  | Report.Healthy -> ()
  | s -> Alcotest.fail (Format.asprintf "Any: %a" Report.pp_status s));
  (* Quorum of two with one healthy: no strict majority. *)
  (match status "(a0.0&Qa1.0)" with
  | Report.Compromised _ -> ()
  | s -> Alcotest.fail (Format.asprintf "Quorum 1/2: %a" Report.pp_status s));
  (* Three leaves, two healthy: majority. *)
  match status "((a0.0>a0.1)&Qa1.0)" with
  | Report.Healthy -> ()
  | s -> Alcotest.fail (Format.asprintf "Quorum 2/3: %a" Report.pp_status s)

let test_estimate_shape () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  let ctl = Cloud.controller cloud in
  let vids = Array.init 2 (fun _ -> launch ctl ~properties:Property.all) in
  let env = Copland.Env.of_cloud cloud ~vids in
  let est line = Copland.Estimate.of_phrase env (parse line) in
  let a = est "a0.0" and s = est "(a0.0>a1.0)" in
  Alcotest.(check int) "seq sums appraisals" (2 * a.Copland.Estimate.appraisals)
    s.Copland.Estimate.appraisals;
  Alcotest.(check int) "seq sums message floor" (2 * a.Copland.Estimate.messages_min)
    s.Copland.Estimate.messages_min;
  Alcotest.(check bool) "layer floor is the check itself" true
    ((est "l0:a0.0").Copland.Estimate.compute_min = Costs.layer_appraise);
  Alcotest.(check bool) "layer ceiling adds the check" true
    ((est "l0:a0.0").Copland.Estimate.compute_max
    = a.Copland.Estimate.compute_max + Costs.layer_appraise);
  Alcotest.(check bool) "estimate pretty-prints" true
    (String.length (Format.asprintf "%a" Copland.Estimate.pp a) > 0)

let () =
  Alcotest.run "copland"
    [
      ( "phrase",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "helpers" `Quick test_phrase_helpers;
        ] );
      ("typing", [ Alcotest.test_case "judgments" `Quick test_typing ]);
      ( "dy",
        [
          Alcotest.test_case "default holds" `Quick test_dy_default_holds;
          Alcotest.test_case "shapes hold" `Quick test_dy_shapes_hold;
          Alcotest.test_case "dropped nonce" `Quick test_dy_dropped_nonce;
          Alcotest.test_case "skipped layer" `Quick test_dy_skipped_layer;
          Alcotest.test_case "unauth delegation" `Quick test_dy_unauth_deleg;
          Alcotest.test_case "attacks have proofs" `Quick test_dy_attacks_have_proofs;
        ] );
      ( "interp",
        [
          Alcotest.test_case "default byte-identical" `Quick test_interp_default_byte_identical;
          Alcotest.test_case "estimate bounds" `Quick test_interp_estimate_bounds;
          Alcotest.test_case "rejects ill-typed" `Quick test_interp_rejects_ill_typed;
          Alcotest.test_case "misroute is hard" `Quick test_interp_routed_misroute_is_hard;
          Alcotest.test_case "layer over stale backend" `Quick test_interp_layer_stale_backend;
          Alcotest.test_case "merge policies" `Quick test_interp_merge_policies;
          Alcotest.test_case "estimate shape" `Quick test_estimate_shape;
        ] );
    ]
