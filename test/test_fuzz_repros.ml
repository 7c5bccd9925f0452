(* Pinned fuzzer repros and oracle mutation tests.

   Each history below is a one-line scenario in the fuzzer's textual
   grammar, promoted from the campaign (shrunk counterexamples of the
   planted bugs) or crafted to cover a generator corner (audit + lossy
   faults, batching, TTL expiry).  Pinning the literal strings guards the
   codec as well as the replayer: a grammar change that breaks old repro
   lines fails here, not in a future debugging session. *)

let replay ?bug line =
  match Fuzz.Op.of_string line with
  | None -> Alcotest.fail ("repro line failed to parse: " ^ line)
  | Some scenario -> (scenario, Fuzz.Replay.run ?bug scenario)

let oracle_names (out : Fuzz.Replay.outcome) =
  List.map (fun (v : Fuzz.Oracle.violation) -> v.oracle) out.violations

(* --- Pinned clean histories ---------------------------------------------- *)

let pinned_clean =
  [
    (* shrunk counterexample of the planted migrate bug (clean unmutated) *)
    "seed=2035 ops=L1.0.0;c50;a0.3;M1;a1.3";
    (* suspend -> attest -> resume -> attest inside one TTL window *)
    "seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1";
    (* audit on under a lossy adversary, cleared mid-history *)
    "seed=11 ops=L0.1.0;u;fl10.10;a0.0;a0.1;f0;A0.2+0.3;t250;a0.0";
    (* batched multi-VM attestation toggled on and back off *)
    "seed=23 ops=L1.1.0;L2.0.1;b1;A0.0+1.1+0.2;c1000;A0.0+1.1;b0;a1.3";
    (* cached Healthy expires over an advance, then the VM is infected *)
    "seed=42 ops=L0.1.1;c200;a0.1;t250;x0;a0.1;K0";
    (* migrate-without-rebind: restored vTPM state attests Compromised
       until the explicit Privacy-CA rebind, then Healthy again *)
    "seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0;vr1;a1.0";
    (* backend-mismatched clones fail cleanly, and suspend/resume with
       stale vTPM state stays convictable until the rebind *)
    "seed=9 ops=L0.1.0;L0.1.0;L0.1.0;vm1.0;a0.0;vm0.1;a1.2;vs1;S1;R1;a1.0;vr1;a1.0";
    (* migrating off a stale host lands on a fresh one: Healthy is fine *)
    "seed=13 ops=L0.1.0;L0.1.0;L0.1.0;c1000;a2.0;vs1;M1;a1.0;vr1;a1.0";
    (* protocol terms through the interpreter: a cache-warm sequence, a
       quorum merge, and a weakened (no-nonce) appraisal the Dolev-Yao
       engine must attack *)
    "seed=77 ops=L0.1.0;L0.1.0;Pa0.0;c1000;P(a0.0>a1.1);P(a0.0&Qa1.0);Pa-0.0";
    (* layered appraisal plus both delegation outcomes: one cluster claim
       matches the live placement, the other is rejected as ill-typed *)
    "seed=78 ops=L0.1.0;Pl0:a0.2;Pd0:a0.0;Pd1:a0.0";
    (* checked layer over a restored-but-unrebound vTPM refuses to run the
       body (Compromised, zero leaves); after the rebind it appraises again *)
    "seed=79 ops=L0.1.0;L0.1.0;L0.1.0;vs1;Pl1:a1.0;vr1;Pl1:a1.0";
    (* protocol run under a lossy adversary (estimate oracle stands down),
       then a clean all-merge over cold channels *)
    "seed=80 ops=L0.1.0;L0.1.0;fl10.10;P(a0.0>a1.0);f0;P(a0.0&Aa1.3)";
    (* continuous monitor armed over long advances: chunked catch-up keeps
       every verdict inside the freshness bound, then the monitor disarms *)
    "seed=31 ops=L0.1.0;me500;t1200;a0.1;t1200;me0;t1200";
    (* rack storm under an armed monitor: the planted compromise must be
       probed out within one period, surviving the victim's termination *)
    "seed=33 ops=L0.1.0;L0.1.0;me500;mt0;t1200;K0;t600";
    (* period change plus suspend/resume: the resumed VM's freshness clock
       restarts, so a post-resume gap is not a violation *)
    "seed=37 ops=L0.1.0;me500;mp1000;S0;t1200;R0;t1200";
  ]

let test_pinned_histories_clean () =
  List.iter
    (fun line ->
      let scenario, out = replay line in
      Alcotest.(check (list string)) ("violations: " ^ line) [] (oracle_names out);
      (* the pinned string is the canonical form, so codec drift shows up *)
      Alcotest.(check string) ("canonical: " ^ line) line (Fuzz.Op.to_string scenario))
    pinned_clean

(* Digest, VMs launched and attestations run of each pinned history: a
   refactor of the replayer that keeps these has kept every per-op trace
   summary the digest folds. *)
let pinned_values =
  [
    ("seed=2035 ops=L1.0.0;c50;a0.3;M1;a1.3",
     "b7abf3cc86bf77302801caf6e94f4207040b1591f2b0e91d944a900292d24ce1", 1, 2);
    ("seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1",
     "6b0d9359fc7107ce112c76e00a43972d509133752083b647006d66433f62b027", 1, 2);
    ("seed=11 ops=L0.1.0;u;fl10.10;a0.0;a0.1;f0;A0.2+0.3;t250;a0.0",
     "97504cb22c952e68f6a20ed44fdea5beb511aeec6d34fd448c6f3d85f41b6f95", 1, 5);
    ("seed=23 ops=L1.1.0;L2.0.1;b1;A0.0+1.1+0.2;c1000;A0.0+1.1;b0;a1.3",
     "2d075b5399ddee58d715d9882d691d5b27480e3603ac16e903e418e52d2fcaf4", 2, 6);
    ("seed=42 ops=L0.1.1;c200;a0.1;t250;x0;a0.1;K0",
     "49e4618a6b62393acf62c64505fa0e5836be78a432d9e6e4f2860eeeb26081b3", 1, 2);
    ("seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0;vr1;a1.0",
     "8d6462fc76713763c29b35f655ddfcc46f5e7a7526a3dd951ab45fb9407a09c7", 2, 2);
    ("seed=9 ops=L0.1.0;L0.1.0;L0.1.0;vm1.0;a0.0;vm0.1;a1.2;vs1;S1;R1;a1.0;vr1;a1.0",
     "20cd228dde4129141c7fe6c0f96eaca12301c4bafd9ce01ca8d6d69eb17fb300", 3, 4);
    ("seed=13 ops=L0.1.0;L0.1.0;L0.1.0;c1000;a2.0;vs1;M1;a1.0;vr1;a1.0",
     "7434a03d257ab66ea0a48b3f76b25efc2ee6d64c1e631802c0d939677333182d", 3, 3);
    ("seed=77 ops=L0.1.0;L0.1.0;Pa0.0;c1000;P(a0.0>a1.1);P(a0.0&Qa1.0);Pa-0.0",
     "207f918c3289faad9327f4dc3d872bc14af952116663a6c11aef3e23a306cdfe", 2, 6);
    ("seed=78 ops=L0.1.0;Pl0:a0.2;Pd0:a0.0;Pd1:a0.0",
     "70727b9c6112e1e4c0ea01f8405ff4b52c2bd9d9d309119ef732fabdb1a01ade", 1, 2);
    ("seed=79 ops=L0.1.0;L0.1.0;L0.1.0;vs1;Pl1:a1.0;vr1;Pl1:a1.0",
     "b2ded62bfb9ef9ce10c9f80fa6367ec4ad0b1fca973f3d47a975698d3a26dd52", 3, 1);
    ("seed=80 ops=L0.1.0;L0.1.0;fl10.10;P(a0.0>a1.0);f0;P(a0.0&Aa1.3)",
     "d60bed51817dfb7dcf5f68534b504411abb805764061910240efe2ecb36f20a8", 2, 4);
    ("seed=31 ops=L0.1.0;me500;t1200;a0.1;t1200;me0;t1200",
     "6b4194c7cc5f75fe6cc38b7e8781254b67a6d14ee9fb578c6b3a6c1e45769904", 1, 5);
    ("seed=33 ops=L0.1.0;L0.1.0;me500;mt0;t1200;K0;t600",
     "a91f803054550c8c0e1624a0274284b34ccd3c3cca02f1e453947f4e38c40067", 2, 5);
    ("seed=37 ops=L0.1.0;me500;mp1000;S0;t1200;R0;t1200",
     "2bf17bfc4cb39d1e1b13251c0a6068a0c521b277863d8deef1b2ce5c65df9983", 1, 1);
  ]

let check_pinned label (out : Fuzz.Replay.outcome) (digest, vms, attests) =
  Alcotest.(check string) ("digest: " ^ label) digest out.Fuzz.Replay.digest;
  Alcotest.(check int) ("vms_launched: " ^ label) vms out.Fuzz.Replay.vms_launched;
  Alcotest.(check int) ("attests_run: " ^ label) attests out.Fuzz.Replay.attests_run

let test_pinned_histories_deterministic () =
  Alcotest.(check (list string)) "every pinned history has pinned values" pinned_clean
    (List.map (fun (line, _, _, _) -> line) pinned_values);
  List.iter
    (fun (line, digest, vms, attests) ->
      let _, out1 = replay line in
      let _, out2 = replay line in
      check_pinned line out1 (digest, vms, attests);
      check_pinned ("second replay " ^ line) out2 (digest, vms, attests))
    pinned_values

(* Generated 30-op histories from the campaign's seed ladder: together they
   reach every op kind the grammar has, so these digests pin the replay of
   the whole generator surface, not only the hand-made corners above. *)
let test_generated_histories_pinned () =
  List.iter
    (fun (seed, digest, vms, attests) ->
      let out = Fuzz.Replay.run (Fuzz.Gen.generate ~seed ~ops:30) in
      let label = "generated seed " ^ string_of_int seed in
      Alcotest.(check (list string)) ("violations: " ^ label) [] (oracle_names out);
      check_pinned label out (digest, vms, attests))
    [
      (2015, "cb26210a029049a79c252680ac4cd82cc7c137246f99d5c5752204c98585d014", 6, 14);
      (2016, "d510471b562add18c4cfd6eefcb9c0f8a2c802330d3b96241cafb60af1cf17b4", 2, 16);
      (2017, "fdd5d281b2b50883b7a906a6b1217519a9d21a82283029cf1586a460432c95b4", 3, 34);
      (2018, "5869184fd17b358e2c8a2ffc8392d85b88b7aefa60b6a9b583ac34220edf2f20", 3, 14);
      (2019, "13a6323a41fade37b95582c60cdd5ded267539d84ad9790bcb502ee3615e3895", 3, 7);
    ]

(* --- Codec ---------------------------------------------------------------- *)

let test_codec_roundtrip_generated () =
  for seed = 1 to 25 do
    let scenario = Fuzz.Gen.generate ~seed ~ops:30 in
    let line = Fuzz.Op.to_string scenario in
    match Fuzz.Op.of_string line with
    | None -> Alcotest.fail ("generated line failed to parse: " ^ line)
    | Some back ->
        Alcotest.(check int) "seed" scenario.Fuzz.Op.seed back.Fuzz.Op.seed;
        Alcotest.(check bool)
          ("ops round-trip: " ^ line)
          true
          (List.for_all2 Fuzz.Op.equal_op scenario.Fuzz.Op.ops back.Fuzz.Op.ops)
  done

let test_codec_rejects_garbage () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("rejected: " ^ line) true (Fuzz.Op.of_string line = None))
    [
      "";
      "seed=1";
      "ops=L0.1.0";
      "seed=x ops=L0.1.0";
      "seed=1 ops=Z9";
      "seed=1 ops=L0.1.0;;a0.0";
      "seed=1 ops=L0.2.0";
      "seed=1 ops=fq3";
      "seed=1 ops=vq3";
      "seed=1 ops=vs";
      "seed=1 ops=P";
      "seed=1 ops=Pa0";
      "seed=1 ops=P(a0.0>a1.0";
      "seed=1 ops=Pa0.0x";
      "seed=1 ops=mq3";
      "seed=1 ops=me";
      "seed=1 ops=mt1.2";
    ]

(* --- Mutation testing: the oracles must catch the planted bugs ------------ *)

(* Under its mutant, each repro yields exactly the pinned (oracle, op index)
   violations; unmutated, it replays clean. *)
let check_planted ~bug line expected =
  let violations ?bug () =
    let _, out = replay ?bug line in
    List.map (fun (v : Fuzz.Oracle.violation) -> (v.oracle, v.op_index)) out.violations
  in
  Alcotest.(check (list (pair string int))) "caught under mutant" expected (violations ~bug ());
  Alcotest.(check (list (pair string int))) "clean without mutant" [] (violations ())

let test_planted_migrate_bug () =
  check_planted ~bug:Fuzz.Replay.Skip_invalidate_on_migrate
    "seed=2035 ops=L1.0.0;c50;a0.3;M1;a1.3" [ ("cache-consistency", 4) ]

let test_planted_resume_bug () =
  check_planted ~bug:Fuzz.Replay.Skip_invalidate_on_resume
    "seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1" [ ("cache-consistency", 5) ]

let test_planted_lazy_monitor_bug () =
  (* A monitor that only wakes at op boundaries leaves the whole advance
     unprobed; its first post-gap probe arrives far beyond the freshness
     bound and the monitor-freshness oracle must convict exactly that. *)
  check_planted ~bug:Fuzz.Replay.Lazy_monitor "seed=3 ops=L0.1.0;me200;t5000"
    [ ("monitor-freshness", 2) ]

let test_planted_rebind_bug () =
  (* A management plane that silently re-registers restored vTPM state
     turns the migrate-without-rebind attack into fresh Healthy verdicts;
     the stale-binding oracle must convict exactly that. *)
  check_planted ~bug:Fuzz.Replay.Rebind_on_restore "seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0"
    [ ("vtpm-stale-binding", 3) ]

(* --- Shrinking ------------------------------------------------------------ *)

let one_minimal ?(oracle = "cache-consistency") ~bug scenario =
  let ops = scenario.Fuzz.Op.ops in
  List.for_all
    (fun i ->
      let shorter = List.filteri (fun j _ -> j <> i) ops in
      not (Fuzz.Shrink.triggers ~bug ~oracle { scenario with Fuzz.Op.ops = shorter }))
    (List.init (List.length ops) Fun.id)

let test_shrunk_repros_one_minimal () =
  List.iter
    (fun (bug, line) ->
      match Fuzz.Op.of_string line with
      | None -> Alcotest.fail ("parse: " ^ line)
      | Some scenario ->
          Alcotest.(check bool) ("<= 10 ops: " ^ line) true
            (List.length scenario.Fuzz.Op.ops <= 10);
          Alcotest.(check bool) ("1-minimal: " ^ line) true (one_minimal ~bug scenario))
    [
      (Fuzz.Replay.Skip_invalidate_on_migrate, "seed=2035 ops=L1.0.0;c50;a0.3;M1;a1.3");
      (Fuzz.Replay.Skip_invalidate_on_resume, "seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1");
    ];
  (* the rebind mutant's repro is 1-minimal under its own oracle *)
  (match Fuzz.Op.of_string "seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0" with
  | None -> Alcotest.fail "parse: rebind repro"
  | Some scenario ->
      Alcotest.(check bool) "rebind repro 1-minimal" true
        (one_minimal ~oracle:"vtpm-stale-binding" ~bug:Fuzz.Replay.Rebind_on_restore
           scenario));
  (* and so is the lazy-monitor mutant's *)
  match Fuzz.Op.of_string "seed=3 ops=L0.1.0;me200;t5000" with
  | None -> Alcotest.fail "parse: lazy-monitor repro"
  | Some scenario ->
      Alcotest.(check bool) "lazy-monitor repro 1-minimal" true
        (one_minimal ~oracle:"monitor-freshness" ~bug:Fuzz.Replay.Lazy_monitor scenario)

let test_shrinker_strips_padding () =
  (* Pad the minimal migrate repro with inert ops; ddmin must strip every
     one of them and land back on a 1-minimal counterexample. *)
  let bug = Fuzz.Replay.Skip_invalidate_on_migrate in
  let padded =
    "seed=2035 ops=t10;L1.0.0;b1;c50;t5;a0.3;u;M1;t20;a1.3;b0;t10"
  in
  match Fuzz.Op.of_string padded with
  | None -> Alcotest.fail "padded line failed to parse"
  | Some scenario ->
      Alcotest.(check bool) "padded still triggers" true
        (Fuzz.Shrink.triggers ~bug ~oracle:"cache-consistency" scenario);
      let shrunk, replays =
        Fuzz.Shrink.minimize ~bug ~oracle:"cache-consistency" scenario
      in
      Alcotest.(check bool) "shrunk triggers" true
        (Fuzz.Shrink.triggers ~bug ~oracle:"cache-consistency" shrunk);
      Alcotest.(check bool) "strictly smaller" true
        (List.length shrunk.Fuzz.Op.ops < List.length scenario.Fuzz.Op.ops);
      Alcotest.(check bool) "within budget" true (replays <= 500);
      Alcotest.(check bool) "1-minimal" true (one_minimal ~bug shrunk)

(* --- A raising replay ----------------------------------------------------- *)

let test_raising_op_reported () =
  (* The codec cannot express a negative pool index, so this op reaches the
     replayer only from code; its array access raises.  The replay stops at
     that op and reports an [exception] violation at its index, which the
     shrinker then treats like any other oracle. *)
  let scenario =
    {
      Fuzz.Op.seed = 1;
      ops =
        [ Fuzz.Op.Advance 5; Fuzz.Op.Launch { image = -1; monitored = false; workload = 0 } ];
    }
  in
  let out = Fuzz.Replay.run scenario in
  Alcotest.(check (list (pair string int)))
    "exception at op 1" [ ("exception", 1) ]
    (List.map (fun (v : Fuzz.Oracle.violation) -> (v.oracle, v.op_index)) out.violations);
  Alcotest.(check int) "ops before it sealed" 1 (List.length out.observations);
  let shrunk, _ = Fuzz.Shrink.minimize ~oracle:"exception" scenario in
  Alcotest.(check int) "shrunk to the raising op" 1 (List.length shrunk.Fuzz.Op.ops)

let () =
  Alcotest.run "fuzz_repros"
    [
      ( "pinned",
        [
          Alcotest.test_case "histories replay clean" `Quick test_pinned_histories_clean;
          Alcotest.test_case "replay is deterministic" `Quick
            test_pinned_histories_deterministic;
          Alcotest.test_case "generated histories pinned" `Quick
            test_generated_histories_pinned;
        ] );
      ( "codec",
        [
          Alcotest.test_case "generated scenarios round-trip" `Quick
            test_codec_roundtrip_generated;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "planted migrate bug caught" `Quick test_planted_migrate_bug;
          Alcotest.test_case "planted resume bug caught" `Quick test_planted_resume_bug;
          Alcotest.test_case "planted rebind bug caught" `Quick test_planted_rebind_bug;
          Alcotest.test_case "planted lazy-monitor bug caught" `Quick
            test_planted_lazy_monitor_bug;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "shrunk repros are 1-minimal" `Quick
            test_shrunk_repros_one_minimal;
          Alcotest.test_case "shrinker strips padding" `Quick test_shrinker_strips_padding;
        ] );
      ( "exception",
        [
          Alcotest.test_case "raising op reported at its index" `Quick
            test_raising_op_reported;
        ] );
    ]
