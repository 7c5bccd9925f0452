(* Trust-backend tests: the BACKEND signature's three implementations.

   The pinned digests below were captured from the pre-backend tree, so
   they prove the refactor left the classic path byte-identical: the same
   key streams, the same endorsement bytes, the same AS wire reply. *)

open Core

let hex s = Crypto.Hexs.encode (Crypto.Sha256.digest s)

(* --- Classic backend: byte-identical to the pre-backend Trust_module ------ *)

(* Every byte a device emits for a fixed seed: identity key, session key +
   endorsement, a session signature, a batch quote and an identity
   signature. *)
let device_bytes b =
  let session = Tpm.Backend.begin_session b in
  [
    Crypto.Rsa.public_to_string (Tpm.Backend.identity_public b);
    Crypto.Rsa.public_to_string session.Tpm.Backend.public;
    session.Tpm.Backend.endorsement;
    Option.get (Tpm.Backend.sign_with_session b session "pin-payload");
    Option.get (Tpm.Backend.quote_batch b session ~root:"pin-root" ~nonce:"pin-nonce");
    Tpm.Backend.sign_identity b "pin-id-payload";
  ]

(* SHA-256 over [device_bytes] of a classic module.  Captured before
   Backend existed. *)
let pinned_module_digest =
  "5ab33645ced906421f92c9551fbc882ed22da10b2475737a3e3e0f4ad4fb5fc1"

let test_classic_backend_bytes_pinned () =
  let b = Tpm.Backend.classic (Tpm.Trust_module.create ~key_bits:512 ~seed:"pin|7" ()) in
  Alcotest.(check string) "classic backend bytes" pinned_module_digest
    (hex (String.concat "|" (device_bytes b)))

(* The e-vTPM and CVM devices' bytes, captured while each was still its own
   copy of the Trust Module.  The e-vTPM digest also covers a saved state
   image and the stale-marked endorsement minted after restoring it. *)
let pinned_evtpm_digest =
  "c9cc2f474b1bd4223bf8588729992410a17b7b0711204f907f5b0e48abe64821"

let pinned_cvm_digest =
  "24adf554eff5346bdddad8ab1113f4ff0aa5171fdc26cafa5496cdde19166d3b"

let test_evtpm_device_bytes_pinned () =
  let b = Tpm.Backend.evtpm (Tpm.Evtpm.create ~key_bits:512 ~seed:"pin|7" ()) in
  let fresh = device_bytes b in
  Tpm.Backend.write_register b 3 42;
  ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs b) 1 "pin-measurement" : string);
  let image = Result.get_ok (Tpm.Backend.save_state b) in
  Result.get_ok (Tpm.Backend.restore_state b image);
  let session = Tpm.Backend.begin_session b in
  let restored =
    [ image; Crypto.Rsa.public_to_string session.Tpm.Backend.public;
      session.Tpm.Backend.endorsement ]
  in
  Alcotest.(check string) "evtpm device bytes" pinned_evtpm_digest
    (hex (String.concat "|" (fresh @ restored)))

let test_cvm_device_bytes_pinned () =
  let root = Tpm.Platform_root.create ~bits:512 ~seed:"pin|7" () in
  let b = Tpm.Backend.cvm (Tpm.Cvm_device.create ~key_bits:512 ~root ~seed:"pin|7" ()) in
  Alcotest.(check string) "cvm device bytes" pinned_cvm_digest
    (hex (String.concat "|" (device_bytes b)))

(* Whole-stack version: a default (all-classic) cloud's AS answers a
   strict-parse wire request with exactly the pre-backend reply bytes. *)
let pinned_as_reply_len = 366

let pinned_as_reply_digest =
  "9813f0863a751590512019e18bcea1fb79ba8223bda80dc5a127341232cb5faa"

let test_classic_as_reply_pinned () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  let ctl = Cloud.controller cloud in
  let vid =
    match
      Controller.launch ctl
        {
          Controller.owner = "pin";
          image = "cirros";
          flavor = "small";
          properties = Property.all;
          workload = "";
          pins = [];
        }
    with
    | Ok info -> info.Commands.vid
    | Error _ -> Alcotest.fail "launch failed"
  in
  let host =
    match Controller.vm_host ctl ~vid with
    | Some h -> h
    | None -> Alcotest.fail "no host"
  in
  let reply =
    Attestation_server.request_handler
      (Cloud.attestation_server cloud)
      ~peer:"cloud-controller"
      (Protocol.encode_as_request
         {
           Protocol.vid;
           server = host;
           property = Property.Startup_integrity;
           nonce = "pin-nonce-0123456";
         })
  in
  Alcotest.(check int) "reply length" pinned_as_reply_len (String.length reply);
  Alcotest.(check string) "reply digest" pinned_as_reply_digest (hex reply)

(* --- Single and batched rounds on every backend, pinned --------------------- *)

(* One server per backend, two VMs each, audit on, verdict cache off: one
   single round per VM, one batched round over all six (one Merkle group per
   backend), then a single and a batched round on the restored, not
   re-registered e-vTPM host.  The digest covers every wire message, ledger
   entry and verdict, so any byte either round shape moves on any backend
   shows here.  Captured before the two shapes shared one round. *)
let pinned_rounds_digest =
  "075b4276f73b72b2be95b941c72200fd4e64a17646d939adb1979a3cbf657272"

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_rounds_pinned () =
  let backend_of = function
    | 0 -> Tpm.Backend.Classic | 1 -> Tpm.Backend.Evtpm | _ -> Tpm.Backend.Cvm_report
  in
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512; backend_of } () in
  ignore (Cloud.enable_audit ~checkpoint_interval:0 cloud : Audit.Log.t list);
  let ctl = Cloud.controller cloud in
  let launch _ =
    let req =
      { Controller.owner = "pin"; image = "cirros"; flavor = "small";
        properties = [ Property.Startup_integrity ]; workload = ""; pins = [] }
    in
    match Controller.launch ctl req with
    | Ok info -> info.Commands.vid
    | Error _ -> Alcotest.fail "launch failed"
  in
  let vids = List.init 6 launch in
  let on host = List.filter (fun vid -> Controller.vm_host ctl ~vid = Some host) vids in
  List.iter
    (fun host -> Alcotest.(check int) (host ^ " hosts two VMs") 2 (List.length (on host)))
    [ "server-1"; "server-2"; "server-3" ];
  let out = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string out (s ^ "\n")) fmt in
  let record (results, ledger) =
    List.iter (fun (label, cost) -> line "ledger %s=%d" label cost) (Ledger.entries ledger);
    List.iter
      (fun ((r : Protocol.attest_request), result) ->
        match result with
        | Ok (c : Protocol.controller_report) ->
            line "verdict %s %s %s" r.vid (Property.to_string r.property)
              (Format.asprintf "%a" Report.pp_status c.Protocol.report.Report.status)
        | Error e -> line "error %s %s" r.vid e)
      results
  in
  let req i vid =
    let property = List.nth Property.all (i mod 4) in
    { Protocol.vid; property; nonce = Printf.sprintf "pin-n1-%d" i }
  in
  let single r =
    let result, ledger = Controller.attest ctl r in
    record ([ (r, result) ], ledger)
  in
  let batched rs = record (Controller.attest_many ctl rs) in
  List.iteri (fun i vid -> single (req i vid)) vids;
  Controller.set_batching ctl true;
  batched (List.mapi (fun i vid -> req (i + 6) vid) vids);
  let state = Result.get_ok (Cloud.vtpm_save cloud ~server:"server-2") in
  Result.get_ok (Cloud.vtpm_restore cloud ~server:"server-2" state);
  single (req 12 (List.hd (on "server-2")));
  batched (List.mapi (fun i vid -> req (i + 13) vid) (on "server-2"));
  List.iter
    (fun (m : Net.Network.message) ->
      line "wire %d %s>%s %s %s" m.seq m.src m.dst
        (if m.dir = Net.Network.Request then "req" else "rep")
        (hex m.payload))
    (Net.Network.recorded (Cloud.net cloud));
  let transcript = Buffer.contents out in
  let count p = List.length (List.filter p (String.split_on_char '\n' transcript)) in
  (* 6 + 6 + 1 + 2 verdicts, every one signed; the restored e-vTPM's three
     are stale-binding. *)
  Alcotest.(check int) "verdicts" 15 (count (String.starts_with ~prefix:"verdict "));
  Alcotest.(check int) "stale-binding verdicts" 3 (count (contains ~sub:"vtpm-stale-binding"));
  Alcotest.(check string) "rounds digest" pinned_rounds_digest (hex transcript)

(* --- Faulty rounds on every hop, pinned ----------------------------------------- *)

(* The same three-backend cloud (two VMs per server, audit on, cache off),
   launched by a customer over a clean network.  Then, under each of five
   adversaries, every hop runs its retry, resync and degrade paths: per VM
   one customer attestation and one describe (customer -> controller), one
   controller attestation (controller -> AS -> server), then one batched
   round over all six.  The adversaries drop, garble, do both at random, cut
   only the AS -> server leg, and cut everything.  The digest covers every
   wire message, ledger entry, verdict with its full status text and error
   string, and the network's drop and retry counts after each adversary.
   Captured before the three hops shared one client. *)
let pinned_faults_digest =
  "ebb1a41039e2d12010feb44992d5bd403082848182d1fbe8a20894d0ffd6f27c"

let test_faults_pinned () =
  let backend_of = function
    | 0 -> Tpm.Backend.Classic | 1 -> Tpm.Backend.Evtpm | _ -> Tpm.Backend.Cvm_report
  in
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512; backend_of } () in
  ignore (Cloud.enable_audit ~checkpoint_interval:0 cloud : Audit.Log.t list);
  let ctl = Cloud.controller cloud in
  let net = Cloud.net cloud in
  let customer = Cloud.Customer.create cloud ~name:"pin" in
  let launch _ =
    match
      Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
        ~properties:[ Property.Startup_integrity ] ()
    with
    | Ok info -> info.Commands.vid
    | Error _ -> Alcotest.fail "launch failed"
  in
  let vids = List.init 6 launch in
  Controller.set_batching ctl true;
  let out = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string out (s ^ "\n")) fmt in
  let status (r : Report.t) = Format.asprintf "%a" Report.pp_status r.Report.status in
  let customer_error e = Format.asprintf "%a" Cloud.Customer.pp_error e in
  let record (results, ledger) =
    List.iter (fun (label, cost) -> line "ledger %s=%d" label cost) (Ledger.entries ledger);
    List.iter
      (fun ((r : Protocol.attest_request), result) ->
        match result with
        | Ok (c : Protocol.controller_report) ->
            line "verdict %s %s %s" r.vid (Property.to_string r.property)
              (status c.Protocol.report)
        | Error e -> line "error %s %s" r.vid e)
      results
  in
  let req k i vid =
    let property = List.nth Property.all (i mod 4) in
    { Protocol.vid; property; nonce = Printf.sprintf "fault-n1-%d-%d" k i }
  in
  let adversaries =
    [
      ("drop-5th", Net.Fault.drop_nth 5);
      ("garble-7th", Net.Fault.garble_nth 7);
      ("lossy", Net.Fault.lossy ~garble_p:0.05 ~drop_p:0.2 ~seed:7 ());
      (* Only the AS -> server leg is cut: the AS's own degrade path. *)
      ( "server-blackout",
        fun (m : Net.Network.message) ->
          if String.starts_with ~prefix:"att:" m.src || String.starts_with ~prefix:"att:" m.dst
          then Net.Network.Drop
          else Net.Network.Pass );
      ("blackout", Net.Fault.blackout ());
    ]
  in
  List.iteri
    (fun k (label, adversary) ->
      line "adversary %s" label;
      Net.Network.set_adversary net adversary;
      List.iteri
        (fun i vid ->
          let property = List.nth Property.all (i mod 4) in
          (match Cloud.Customer.attest customer ~vid ~property with
          | Ok r -> line "customer-verdict %s %s" vid (status r)
          | Error e -> line "customer-error %s %s" vid (customer_error e));
          (match Cloud.Customer.describe customer ~vid with
          | Ok (state, props) ->
              line "describe %s %s %s" vid state
                (String.concat "," (List.map Property.to_string props))
          | Error e -> line "describe-error %s %s" vid (customer_error e));
          let r = req k i vid in
          let result, ledger = Controller.attest ctl r in
          record ([ (r, result) ], ledger))
        vids;
      record (Controller.attest_many ctl (List.mapi (fun i vid -> req k (i + 6) vid) vids));
      Net.Network.clear_adversary net;
      line "drops %d retries %d" (Net.Network.drop_count net) (Net.Network.retry_count net))
    adversaries;
  List.iter
    (fun (m : Net.Network.message) ->
      line "wire %d %s>%s %s %s" m.seq m.src m.dst
        (if m.dir = Net.Network.Request then "req" else "rep")
        (hex m.payload))
    (Net.Network.recorded net);
  let transcript = Buffer.contents out in
  let count p = List.length (List.filter p (String.split_on_char '\n' transcript)) in
  let starts prefixes l = List.exists (fun prefix -> String.starts_with ~prefix l) prefixes in
  (* 5 adversaries x 18 answers each; the last two adversaries degrade every
     attestation that reaches the controller. *)
  Alcotest.(check int) "verdicts" 70 (count (starts [ "verdict "; "customer-verdict " ]));
  Alcotest.(check int) "errors" 28
    (count (starts [ "error "; "customer-error "; "describe-error " ]));
  Alcotest.(check int) "degraded" 30 (count (contains ~sub:"UNKNOWN (attestation "));
  Alcotest.(check string) "faults digest" pinned_faults_digest (hex transcript)

(* --- e-vTPM state machine -------------------------------------------------- *)

let test_evtpm_save_restore_roundtrip () =
  let dev = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed:"evtpm-rt" () in
  Tpm.Backend.write_register dev 0 42;
  ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs dev) 1 "boot-measurement" : string);
  let pcr1 = Tpm.Pcr.read (Tpm.Backend.pcrs dev) 1 in
  let state = Result.get_ok (Tpm.Backend.save_state dev) in
  (* Mutate after the snapshot, then restore: state rolls back. *)
  Tpm.Backend.write_register dev 0 99;
  ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs dev) 1 "later" : string);
  Alcotest.(check bool) "fresh before restore" false (Tpm.Backend.stale dev);
  (match Tpm.Backend.restore_state dev state with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("restore failed: " ^ e));
  Alcotest.(check bool) "stale after restore" true (Tpm.Backend.stale dev);
  Alcotest.(check int) "register rolled back" 42 (Tpm.Backend.read_registers dev).(0);
  Alcotest.(check string) "pcr rolled back" pcr1 (Tpm.Pcr.read (Tpm.Backend.pcrs dev) 1);
  (* A stale module's endorsement carries the stale marker in the signed
     payload, so no verifier can certify it by accident. *)
  let session = Tpm.Backend.begin_session dev in
  let payload =
    Tpm.Backend.evtpm_endorsement_payload
      ~epoch:(Tpm.Backend.binding_epoch dev)
      ~stale:true session.Tpm.Backend.public
  in
  Alcotest.(check bool) "stale endorsement verifies as stale" true
    (Crypto.Rsa.verify (Tpm.Backend.identity_public dev)
       ~signature:session.Tpm.Backend.endorsement payload)

let test_evtpm_geometry_mismatch_rejected () =
  let create num_registers seed =
    Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~num_registers ~seed ()
  in
  let small = create 4 "evtpm-a" and big = create 8 "evtpm-b" in
  let state = Result.get_ok (Tpm.Backend.save_state small) in
  (match Tpm.Backend.restore_state big state with
  | Ok () -> Alcotest.fail "geometry mismatch accepted"
  | Error _ -> ());
  Alcotest.(check bool) "failed restore leaves module fresh" false (Tpm.Backend.stale big);
  match Tpm.Backend.restore_state big "garbage" with
  | Ok () -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_evtpm_rebind_clears_stale () =
  let dev = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed:"evtpm-rb" () in
  let state = Result.get_ok (Tpm.Backend.save_state dev) in
  Result.get_ok (Tpm.Backend.restore_state dev state);
  Alcotest.(check bool) "stale" true (Tpm.Backend.stale dev);
  Alcotest.(check int) "epoch 0" 0 (Tpm.Backend.binding_epoch dev);
  Alcotest.(check int) "epoch bumps" 1 (Tpm.Backend.rebind dev);
  Alcotest.(check bool) "fresh again" false (Tpm.Backend.stale dev)

let test_evtpm_clone_carries_identity () =
  (* Restoring A's state into B is the rollback/clone attack: B now quotes
     under A's identity — and is stale until an explicit re-registration. *)
  let a = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed:"evtpm-src" () in
  let b = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed:"evtpm-dst" () in
  let state = Result.get_ok (Tpm.Backend.save_state a) in
  Result.get_ok (Tpm.Backend.restore_state b state);
  Alcotest.(check bool) "clone is stale" true (Tpm.Backend.stale b);
  Alcotest.(check string) "clone took src identity"
    (Crypto.Rsa.public_to_string (Tpm.Backend.identity_public a))
    (Crypto.Rsa.public_to_string (Tpm.Backend.identity_public b))

(* A saved e-vTPM image's fields: magic, epoch, key size, identity public
   key, identity secret (hex), registers, PCRs. *)
let image_fields image =
  Wire.Codec.(
    decode image (fun d ->
        let magic = Dec.str d in
        let epoch = Dec.int d in
        let key_bits = Dec.int d in
        let pub = Dec.str d in
        let secret = Dec.str d in
        let registers = Dec.list d Dec.int in
        (magic, epoch, key_bits, pub, secret, registers, Dec.list d Dec.str)))

let with_secret image secret =
  let magic, epoch, key_bits, pub, _, registers, pcrs = image_fields image in
  Wire.Codec.(
    encode (fun e ->
        Enc.str e magic;
        Enc.int e epoch;
        Enc.int e key_bits;
        Enc.str e pub;
        Enc.str e secret;
        Enc.list e (Enc.int e) registers;
        Enc.list e (Enc.str e) pcrs))

let secret_of image =
  let _, _, _, _, secret, _, _ = image_fields image in
  secret

let test_evtpm_doctored_secret_rejected () =
  let create seed = Tpm.Backend.create Tpm.Backend.Evtpm ~key_bits:512 ~seed () in
  let dev = create "evtpm-victim" and src = create "evtpm-src" and other = create "evtpm-other" in
  ignore (Tpm.Backend.rebind dev : int);
  Tpm.Backend.write_register dev 0 7;
  ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs dev) 1 "victim-boot" : string);
  Tpm.Backend.write_register src 0 42;
  let image = Result.get_ok (Tpm.Backend.save_state src) in
  let observe () =
    ( Crypto.Rsa.public_to_string (Tpm.Backend.identity_public dev),
      Tpm.Backend.read_registers dev,
      Tpm.Pcr.snapshot (Tpm.Backend.pcrs dev),
      Tpm.Backend.binding_epoch dev,
      Tpm.Backend.stale dev )
  in
  let before = observe () in
  List.iter
    (fun (label, doctored) ->
      (match Tpm.Backend.restore_state dev doctored with
      | Ok () -> Alcotest.failf "%s: restored" label
      | Error _ -> ());
      Alcotest.(check bool) (label ^ ": device untouched") true (observe () = before))
    [
      ("non-hex secret", with_secret image "not-hex!");
      ( "another device's secret",
        with_secret image (secret_of (Result.get_ok (Tpm.Backend.save_state other))) );
    ];
  Alcotest.(check bool) "the honest image still restores" true
    (Tpm.Backend.restore_state dev image = Ok ())

(* --- End-to-end lifecycle on the cloud ------------------------------------- *)

let evtpm_cloud () =
  Cloud.build
    ~config:
      {
        Cloud.default_config with
        key_bits = 512;
        backend_of = (fun _ -> Tpm.Backend.Evtpm);
      }
    ()

let attest_status customer ~vid =
  match Cloud.Customer.attest customer ~vid ~property:Property.Startup_integrity with
  | Ok r -> r.Report.status
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e

let launch_monitored customer =
  match
    Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
      ~properties:[ Property.Startup_integrity ] ()
  with
  | Ok info -> info.Commands.vid
  | Error e -> Alcotest.failf "launch failed: %a" Cloud.Customer.pp_error e

let test_migrate_without_rebind_detected () =
  let cloud = evtpm_cloud () in
  let customer = Cloud.Customer.create cloud ~name:"eve" in
  let vid = launch_monitored customer in
  let host = Option.get (Controller.vm_host (Cloud.controller cloud) ~vid) in
  Alcotest.(check bool) "fresh attest healthy" true (attest_status customer ~vid = Report.Healthy);
  (* The migrate-without-rebind attack: carry the vTPM state image over
     and keep serving quotes from it without re-registering. *)
  let state = Result.get_ok (Cloud.vtpm_save cloud ~server:host) in
  Result.get_ok (Cloud.vtpm_restore cloud ~server:host state);
  (match attest_status customer ~vid with
  | Report.Compromised reason ->
      Alcotest.(check bool) "stale-binding verdict" true
        (String.length reason >= 18 && String.sub reason 0 18 = "vtpm-stale-binding")
  | s -> Alcotest.failf "expected Compromised, got %a" Report.pp_status s);
  (* Re-registration with the Privacy CA is the only way back. *)
  let epoch = Result.get_ok (Cloud.vtpm_rebind cloud ~server:host) in
  Alcotest.(check int) "epoch advanced" 1 epoch;
  Alcotest.(check bool) "healthy after rebind" true
    (attest_status customer ~vid = Report.Healthy)

(* The batched shape of the same attack: one Merkle round over every VM on
   the restored host, and every item comes back signed and stale. *)
let test_batched_round_on_stale_host () =
  let backend_of _ = Tpm.Backend.Evtpm in
  let config = { Cloud.default_config with key_bits = 512; num_servers = 1; backend_of } in
  let cloud = Cloud.build ~config () in
  let ctl = Cloud.controller cloud in
  let eve = Cloud.Customer.create cloud ~name:"eve" in
  let vids = List.init 3 (fun _ -> launch_monitored eve) in
  let state = Result.get_ok (Cloud.vtpm_save cloud ~server:"server-1") in
  Result.get_ok (Cloud.vtpm_restore cloud ~server:"server-1" state);
  Controller.set_batching ctl true;
  let reqs =
    List.map (fun vid -> { Protocol.vid; property = Property.Startup_integrity; nonce = vid }) vids
  in
  let results, ledger = Controller.attest_many ctl reqs in
  Alcotest.(check int) "one AS round" Costs.db_lookup (Ledger.of_label ledger "as:db-lookup");
  List.iter
    (fun ((r : Protocol.attest_request), result) ->
      let c = Result.get_ok result in
      Alcotest.(check bool) (r.vid ^ " signed") true
        (Protocol.verify_controller_report ~key:(Controller.public_key ctl) ~expected_vid:r.vid
           ~expected_property:r.property ~expected_nonce:r.nonce c
        = Ok ());
      match c.Protocol.report.Report.status with
      | Report.Compromised why ->
          Alcotest.(check bool) (r.vid ^ " stale binding") true
            (String.starts_with ~prefix:"vtpm-stale-binding" why)
      | s -> Alcotest.failf "%s: expected Compromised, got %a" r.vid Report.pp_status s)
    results

let test_vtpm_ops_reject_non_evtpm_hosts () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  (match Cloud.vtpm_save cloud ~server:"server-1" with
  | Ok _ -> Alcotest.fail "saved a classic TPM"
  | Error _ -> ());
  match Cloud.vtpm_rebind cloud ~server:"server-1" with
  | Ok _ -> Alcotest.fail "rebound a classic TPM"
  | Error _ -> ()

(* --- CVM hardware reports -------------------------------------------------- *)

let cvm_cloud () =
  Cloud.build
    ~config:
      {
        Cloud.default_config with
        key_bits = 512;
        backend_of = (fun _ -> Tpm.Backend.Cvm_report);
      }
    ()

let test_cvm_attests_against_vendor_root () =
  let cloud = cvm_cloud () in
  Alcotest.(check bool) "vendor root minted" true (Cloud.platform_root cloud <> None);
  let customer = Cloud.Customer.create cloud ~name:"carol" in
  let vid = launch_monitored customer in
  Alcotest.(check bool) "cvm attest healthy" true
    (attest_status customer ~vid = Report.Healthy)

let test_cvm_operator_convicted_on_rollback () =
  (* CVM hardware keeps the operator out of the measurement TCB, but the
     verdict distribution is still operator-run: an operator that shows an
     auditor an old signed head as latest is convicted from signatures
     alone. *)
  let cloud = cvm_cloud () in
  let logs = Cloud.enable_audit ~checkpoint_interval:0 cloud in
  let log = List.hd logs in
  let customer = Cloud.Customer.create cloud ~name:"carol" in
  let vid = launch_monitored customer in
  Alcotest.(check bool) "audited attest healthy" true
    (attest_status customer ~vid = Report.Healthy);
  let old_sth = Audit.Log.checkpoint log in
  Alcotest.(check bool) "second attest healthy" true
    (attest_status customer ~vid = Report.Healthy);
  ignore (Audit.Log.checkpoint log : Audit.Sth.t);
  let key_of id = if id = Audit.Log.log_id log then Some (Audit.Log.public_key log) else None in
  let auditor = Audit.Auditor.create ~name:"aud" ~key_of () in
  let view = Audit.View.of_log log in
  Audit.Auditor.observe auditor view;
  Alcotest.(check int) "honest view: no evidence" 0 (Audit.Auditor.evidence_count auditor);
  Audit.Auditor.observe auditor (Audit.View.stale view ~sth:old_sth);
  Alcotest.(check bool) "rollback convicted" true
    (List.exists
       (fun ev -> ev.Audit.Auditor.kind = Audit.Auditor.Rollback)
       (Audit.Auditor.evidence auditor))

(* An AS with no vendor root cannot appraise a CVM host, in either shape:
   a hard error, never a degraded [Unknown] verdict.  The cloud's own AS
   has none: an all-classic cloud mints no vendor root. *)
let test_cvm_without_vendor_root () =
  let config = { Cloud.default_config with key_bits = 512; num_servers = 1 } in
  let cloud = Cloud.build ~config () in
  let carol = Cloud.Customer.create cloud ~name:"carol" in
  let vids = List.init 2 (fun _ -> launch_monitored carol) in
  (* The cluster's AS, rebuilt with a lookup that places server-1 on CVM
     hardware: same name and identity, so server-1 accepts its channel. *)
  let seed = string_of_int config.Cloud.seed in
  let as_ =
    Attestation_server.create ~net:(Cloud.net cloud) ~ca:(Cloud.ca cloud) ~pca:(Cloud.pca cloud)
      ~refs:config.Cloud.refs ~seed ~key_bits:config.Cloud.key_bits
      ~name:(Attestation_server.name (Cloud.attestation_server cloud))
      ~clock:(fun () -> Cloud.now cloud)
      ~vm_image:(fun _ -> None)
      ~backend_of:(fun _ -> Tpm.Backend.Cvm_report)
      ()
  in
  let degraded = Attestation_server.degraded_count as_ in
  let signed = Attestation_server.attestations_done as_ in
  let items = List.map (fun vid -> (vid, Property.Startup_integrity)) vids in
  let vid, property = List.hd items in
  let expect shape = function
    | Error `No_platform_root -> ()
    | Error e -> Alcotest.failf "%s: %a" shape Attestation_server.pp_error e
    | Ok _ -> Alcotest.failf "%s: appraised without a vendor root" shape
  in
  expect "single"
    (fst (Attestation_server.attest as_ ~vid ~server:"server-1" ~property ~nonce:"n2"));
  expect "batch" (fst (Attestation_server.attest_batch as_ ~server:"server-1" ~items ~nonce:"n2"));
  Alcotest.(check int) "nothing degraded" degraded (Attestation_server.degraded_count as_);
  Alcotest.(check int) "no verdict signed" signed (Attestation_server.attestations_done as_)

(* --- Per-backend cost rows -------------------------------------------------- *)

let test_backend_cost_rows () =
  (* Classic selectors must keep returning the historical constants. *)
  Alcotest.(check int) "classic keygen"
    Costs.session_keygen
    (Costs.session_keygen_for Tpm.Backend.Classic);
  Alcotest.(check int) "classic quote" Costs.quote_sign
    (Costs.quote_sign_for Tpm.Backend.Classic);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "%s keygen positive" (Tpm.Backend.kind_to_string kind))
        true
        (Costs.session_keygen_for kind > 0 && Costs.quote_sign_for kind > 0))
    Tpm.Backend.all_kinds

(* --- Who may open a channel to whom ------------------------------------------- *)

(* Paper Fig. 3, stated here rather than read back from [Cloud]: customers
   talk to the Cloud Controller, only the controller tasks an Attestation
   Server, and only the AS of a server's cluster tasks that server's
   Attestation Client.  Every principal holds a certificate minted under
   its own name by the cloud's CA, so each refusal below is the endpoint's
   peer rule, not a certificate check. *)
let test_peer_table kind () =
  let cloud =
    Cloud.build
      ~config:
        {
          Cloud.default_config with
          key_bits = 512;
          num_attestation_servers = 2;
          backend_of = (fun _ -> kind);
        }
      ()
  in
  let ases = [ "attestation-server-1"; "attestation-server-2" ] in
  let servers = [ "server-1"; "server-2"; "server-3" ] in
  (* Servers join the two clusters round-robin. *)
  let cluster_as = function "server-2" -> "attestation-server-2" | _ -> "attestation-server-1" in
  (* (network address, certificate subject) of every endpoint. *)
  let endpoints =
    (("cloud-controller", "cloud-controller") :: List.map (fun a -> (a, a)) ases)
    @ List.map (fun s -> ("att:" ^ s, s)) servers
  in
  let allowed ~principal (_, subject) =
    if subject = "cloud-controller" then principal = "alice"
    else if List.mem subject ases then principal = "cloud-controller"
    else principal = cluster_as subject
  in
  let ca = Cloud.ca cloud in
  List.iter
    (fun principal ->
      let identity =
        Net.Secure_channel.Identity.make ca ~seed:(principal ^ "|peers") ~bits:512
          ~name:principal ()
      in
      List.iter
        (fun ((address, subject) as endpoint) ->
          let outcome =
            Net.Secure_channel.Client.connect ~identity ~ca:(Net.Ca.public ca)
              ~seed:(principal ^ "|probe") ~peer:subject
              ~transport:(fun msg ->
                match Net.Network.call (Cloud.net cloud) ~src:principal ~dst:address msg with
                | Ok reply, _ -> Ok reply
                | Error _, _ -> Error "transport")
          in
          match (allowed ~principal endpoint, outcome) with
          | true, Ok _ | false, Error (`Rejected "peer not allowed") -> ()
          | true, Error e ->
              Alcotest.failf "%s refused at %s: %a" principal address
                Net.Secure_channel.pp_error e
          | false, Ok _ -> Alcotest.failf "%s opened a channel to %s" principal address
          | false, Error e ->
              Alcotest.failf "%s at %s: wrong refusal %a" principal address
                Net.Secure_channel.pp_error e)
        endpoints)
    (("cloud-controller" :: ases) @ servers @ [ "alice" ])

(* A certificate subject names one principal.  A customer under an
   infrastructure name would pass that principal's peer checks; a second
   customer under a taken name would take over the first one's periodic
   reports and count each of them as forged. *)
let test_name_enrolled_once () =
  let cloud = Cloud.build ~config:{ Cloud.default_config with key_bits = 512 } () in
  let alice = Cloud.Customer.create cloud ~name:"alice" in
  let vid = launch_monitored alice in
  Result.get_ok
    (Cloud.Customer.attest_periodic alice ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 1) ());
  Cloud.run_for cloud (Sim.Time.sec 3);
  let before = List.length (Cloud.Customer.periodic_reports alice) in
  List.iter
    (fun name ->
      match Cloud.Customer.create cloud ~name with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "a second principal enrolled as %s" name)
    [ "alice"; "cloud-controller"; "attestation-server"; "server-1"; "server-2"; "server-3" ];
  Cloud.run_for cloud (Sim.Time.sec 3);
  Alcotest.(check int) "alice keeps her rounds" (before + 3)
    (List.length (Cloud.Customer.periodic_reports alice));
  Alcotest.(check int) "nothing forged" 0 (Cloud.Customer.forged_count alice)

let () =
  Alcotest.run "backends"
    [
      ( "classic-pinned",
        [
          Alcotest.test_case "module bytes pinned" `Quick test_classic_backend_bytes_pinned;
          Alcotest.test_case "AS wire reply pinned" `Quick test_classic_as_reply_pinned;
        ] );
      ( "device-pinned",
        [
          Alcotest.test_case "evtpm device bytes pinned" `Quick test_evtpm_device_bytes_pinned;
          Alcotest.test_case "cvm device bytes pinned" `Quick test_cvm_device_bytes_pinned;
        ] );
      ( "rounds-pinned",
        [ Alcotest.test_case "single and batched rounds pinned" `Quick test_rounds_pinned ] );
      ( "faults-pinned",
        [ Alcotest.test_case "faulty rounds on every hop pinned" `Quick test_faults_pinned ] );
      ( "evtpm",
        [
          Alcotest.test_case "save/restore round-trip" `Quick
            test_evtpm_save_restore_roundtrip;
          Alcotest.test_case "geometry mismatch rejected" `Quick
            test_evtpm_geometry_mismatch_rejected;
          Alcotest.test_case "rebind clears staleness" `Quick test_evtpm_rebind_clears_stale;
          Alcotest.test_case "clone carries identity" `Quick
            test_evtpm_clone_carries_identity;
          Alcotest.test_case "doctored identity secret rejected" `Quick
            test_evtpm_doctored_secret_rejected;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "migrate without rebind detected" `Quick
            test_migrate_without_rebind_detected;
          Alcotest.test_case "batched round on stale host" `Quick
            test_batched_round_on_stale_host;
          Alcotest.test_case "vtpm ops reject classic hosts" `Quick
            test_vtpm_ops_reject_non_evtpm_hosts;
        ] );
      ( "cvm",
        [
          Alcotest.test_case "attests against vendor root" `Quick
            test_cvm_attests_against_vendor_root;
          Alcotest.test_case "operator rollback convicted" `Quick
            test_cvm_operator_convicted_on_rollback;
          Alcotest.test_case "no vendor root is a hard error" `Quick
            test_cvm_without_vendor_root;
        ] );
      ( "costs",
        [ Alcotest.test_case "per-backend cost rows" `Quick test_backend_cost_rows ] );
      ( "peer-table",
        Alcotest.test_case "a name is enrolled once" `Quick test_name_enrolled_once
        :: List.map
             (fun kind ->
               Alcotest.test_case
                 ("every principal at every endpoint: " ^ Tpm.Backend.kind_to_string kind)
                 `Quick (test_peer_table kind))
             Tpm.Backend.all_kinds );
    ]
