(* Integration tests: the full CloudMonatt cloud, end-to-end.

   These exercise the complete Figure 1 architecture over the simulated
   network with real cryptography: customer -> Cloud Controller ->
   Attestation Server -> Cloud Server and back, with detection and
   remediation scenarios from sections 4 and 5 and the unforgeability
   claims of section 7.2. *)

open Core

let fast_config = { Cloud.default_config with key_bits = 512 }

let make_cloud ?(config = fast_config) () = Cloud.build ~config ()

let launch_ok customer ~image ~flavor ~properties ?workload () =
  match Cloud.Customer.launch customer ~image ~flavor ~properties ?workload () with
  | Ok info -> info
  | Error e -> Alcotest.failf "launch failed: %a" Cloud.Customer.pp_error e

let attest_ok customer ~vid ~property =
  match Cloud.Customer.attest customer ~vid ~property with
  | Ok r -> r
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e

(* --- Launch ------------------------------------------------------------------ *)

let test_launch_unmonitored () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[] () in
  (* Four OpenStack stages, no attestation stage. *)
  Alcotest.(check (list string)) "stages"
    [ "scheduling"; "networking"; "mapping"; "spawning" ]
    (List.map fst info.Commands.stages)

let test_launch_monitored_five_stages () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"ubuntu" ~flavor:"large" ~properties:[ Property.Startup_integrity ] ()
  in
  Alcotest.(check (list string)) "five stages"
    [ "scheduling"; "networking"; "mapping"; "spawning"; "attestation" ]
    (List.map fst info.Commands.stages);
  let att = List.assoc "attestation" info.Commands.stages in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 info.Commands.stages in
  let pct = 100.0 *. float_of_int att /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "attestation ~20%% of launch (got %.1f%%)" pct)
    true
    (pct > 10.0 && pct < 30.0)

let test_launch_unknown_image () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  match Cloud.Customer.launch c ~image:"win95" ~flavor:"small" () with
  | Error (`Cloud _) -> ()
  | _ -> Alcotest.fail "unknown image must fail"

let test_launch_tampered_image_rejected () =
  let cloud = make_cloud () in
  ignore (Controller.corrupt_image (Cloud.controller cloud) "fedora" : bool);
  let c = Cloud.Customer.create cloud ~name:"alice" in
  (match
     Cloud.Customer.launch c ~image:"fedora" ~flavor:"small"
       ~properties:[ Property.Startup_integrity ] ()
   with
  | Error (`Cloud _) -> ()
  | Ok _ -> Alcotest.fail "tampered image must be rejected"
  | Error e -> Alcotest.failf "unexpected error: %a" Cloud.Customer.pp_error e);
  (* But an unmonitored launch of the same image sails through: without the
     property request there is no startup attestation (and no protection). *)
  match Cloud.Customer.launch c ~image:"fedora" ~flavor:"small" ~properties:[] () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unmonitored launch failed: %a" Cloud.Customer.pp_error e

let test_corrupt_platform_avoided () =
  (* Server 1 boots a trojaned hypervisor.  The launch retry loop must land
     monitored VMs on a pristine server. *)
  let config = { fast_config with corrupt_platforms = [ 0 ] } in
  let cloud = make_cloud ~config () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  for _ = 1 to 3 do
    let info =
      launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Startup_integrity ] ()
    in
    let host = Option.get (Controller.vm_host (Cloud.controller cloud) ~vid:info.Commands.vid) in
    Alcotest.(check bool) ("avoids corrupt server, got " ^ host) true (host <> "server-1")
  done

let test_no_qualified_server () =
  (* All servers insecure: monitored VMs cannot be placed at all. *)
  let config = { fast_config with insecure_servers = 3 } in
  let cloud = make_cloud ~config () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  (match
     Cloud.Customer.launch c ~image:"cirros" ~flavor:"small"
       ~properties:[ Property.Runtime_integrity ] ()
   with
  | Error (`Cloud "no qualified server") -> ()
  | Ok _ -> Alcotest.fail "insecure fleet must refuse monitored VMs"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e);
  (* Unmonitored VMs still work on insecure servers. *)
  match Cloud.Customer.launch c ~image:"cirros" ~flavor:"small" ~properties:[] () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unmonitored should work: %a" Cloud.Customer.pp_error e

(* --- Attestation happy paths ---------------------------------------------------- *)

let test_attest_all_properties_healthy () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"ubuntu" ~flavor:"small" ~properties:Property.all ~workload:"busy" ()
  in
  Cloud.run_for cloud (Sim.Time.sec 5);
  List.iter
    (fun property ->
      let r = attest_ok c ~vid:info.Commands.vid ~property in
      match r.Report.status with
      | Report.Healthy -> ()
      | s ->
          Alcotest.failf "%s should be healthy, got %a" (Property.to_string property)
            Report.pp_status s)
    [ Property.Startup_integrity; Property.Runtime_integrity; Property.Cpu_availability ]

let test_attest_other_customers_vm_refused () =
  let cloud = make_cloud () in
  let alice = Cloud.Customer.create cloud ~name:"alice" in
  let eve = Cloud.Customer.create cloud ~name:"eve" in
  let info = launch_ok alice ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  match Cloud.Customer.attest eve ~vid:info.Commands.vid ~property:Property.Runtime_integrity with
  | Error (`Cloud "no such VM") -> ()
  | Ok _ -> Alcotest.fail "cross-customer attestation must be refused"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e

let test_attest_unknown_vm () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  match Cloud.Customer.attest c ~vid:"vm-9999" ~property:Property.Runtime_integrity with
  | Error (`Cloud _) -> ()
  | _ -> Alcotest.fail "unknown VM must fail"

let test_as_history_recorded () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  ignore (attest_ok c ~vid:info.Commands.vid ~property:Property.Runtime_integrity);
  let history = Attestation_server.history (Cloud.attestation_server cloud) in
  (* startup attestation + our runtime one *)
  Alcotest.(check bool) "history grows" true (List.length history >= 2);
  Alcotest.(check bool) "count matches" true
    (Attestation_server.attestations_done (Cloud.attestation_server cloud)
    = List.length history)

(* --- Batched attestation ---------------------------------------------------------- *)

(* Launch enough monitored VMs that at least one server hosts two or more
   (three servers, so four VMs pigeonhole), and return a host with its
   co-located vids. *)
let co_located_vms cloud customer n =
  let controller = Cloud.controller cloud in
  let all_vids =
    List.init n (fun _ ->
        (launch_ok customer ~image:"cirros" ~flavor:"small"
           ~properties:[ Property.Runtime_integrity ] ())
          .Commands.vid)
  in
  let by_host = Hashtbl.create 4 in
  List.iter
    (fun vid ->
      let host = Option.get (Controller.vm_host controller ~vid) in
      Hashtbl.replace by_host host
        (vid :: Option.value ~default:[] (Hashtbl.find_opt by_host host)))
    all_vids;
  let best =
    Hashtbl.fold
      (fun host vids acc ->
        match acc with
        | Some (_, best, _) when List.length best >= List.length vids -> acc
        | _ -> Some (host, List.rev vids, all_vids))
      by_host None
  in
  match best with
  | Some (host, vids, all) when List.length vids >= 2 -> (host, vids, all)
  | _ -> Alcotest.fail "expected co-located VMs"

let test_batch_attest_end_to_end () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let host, vids, _ = co_located_vms cloud c 4 in
  let as_ = Cloud.attestation_server cloud in
  let items = List.map (fun vid -> (vid, Property.Runtime_integrity)) vids in
  let nonce = String.make 16 'b' in
  let result, ledger = Attestation_server.attest_batch as_ ~server:host ~items ~nonce in
  (match result with
  | Error e -> Alcotest.failf "batch refused: %a" Attestation_server.pp_error e
  | Ok reports ->
      Alcotest.(check int) "one reply per request" (List.length items) (List.length reports);
      List.iter2
        (fun (vid, property) (rvid, rproperty, r) ->
          Alcotest.(check string) "request order preserved" vid rvid;
          Alcotest.(check bool) "property echoed" true (Property.equal property rproperty);
          match r with
          | Error e -> Alcotest.failf "item failed: %a" Attestation_server.pp_error e
          | Ok report ->
              (* Every report in the batch is individually signed and
                 individually verifiable, exactly like the unbatched path. *)
              Alcotest.(check bool) "individually verifies" true
                (Protocol.verify_as_report
                   ~key:(Attestation_server.public_key as_)
                   ~expected_vid:vid ~expected_server:host ~expected_property:property
                   ~expected_nonce:nonce report
                = Ok ());
              Alcotest.(check bool) "healthy" true (Report.is_healthy report.Protocol.report))
        items reports);
  (* The ledger shows the amortization: one batch-sized verification charge
     instead of per-report RSA verifies, and the whole batch's quote cost
     stays below what per-report session keygens alone would have cost. *)
  let n = List.length items in
  Alcotest.(check int) "batched verify charge"
    (Costs.batch_verify_cost ~batch:n)
    (Ledger.of_label ledger "verify");
  Alcotest.(check bool) "quote cost amortized across the batch" true
    (Ledger.of_label ledger "server-measure" < n * Costs.session_keygen);
  Alcotest.(check int) "per-report interpretation still happens"
    (n * Costs.interpret)
    (Ledger.of_label ledger "interpret")

let test_attest_many_batched_matches_unbatched () =
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let _host, _co, all_vids = co_located_vms cloud c 4 in
  let reqs =
    List.mapi
      (fun i vid ->
        { Protocol.vid; property = Property.Runtime_integrity; nonce = Printf.sprintf "nonce-%04d" i })
      all_vids
  in
  Alcotest.(check bool) "have requests" true (List.length reqs >= 2);
  (* Batching off: attest_many is attest in a loop. *)
  let unbatched, _ = Controller.attest_many controller reqs in
  (* Batching on: host groups ride one Merkle-batched AS round. *)
  Controller.set_batching controller true;
  Alcotest.(check bool) "batching on" true (Controller.batching controller);
  let batched, _ = Controller.attest_many controller reqs in
  List.iter2
    (fun ((req0 : Protocol.attest_request), r0) ((req1 : Protocol.attest_request), r1) ->
      Alcotest.(check string) "request order preserved" req0.Protocol.vid req1.Protocol.vid;
      match (r0, r1) with
      | Ok a, Ok b ->
          Alcotest.(check bool) "same verdict either way" true
            (a.Protocol.report.Report.status = b.Protocol.report.Report.status);
          (* Both verify under the controller key against their own nonce. *)
          List.iter
            (fun ((req : Protocol.attest_request), (r : Protocol.controller_report)) ->
              Alcotest.(check bool) "verifies" true
                (Protocol.verify_controller_report ~key:(Controller.public_key controller)
                   ~expected_vid:req.Protocol.vid
                   ~expected_property:req.Protocol.property
                   ~expected_nonce:req.Protocol.nonce r
                = Ok ()))
            [ (req0, a); (req1, b) ]
      | r0, r1 ->
          Alcotest.failf "mismatched outcomes: %s / %s"
            (match r0 with Ok _ -> "ok" | Error e -> e)
            (match r1 with Ok _ -> "ok" | Error e -> e))
    unbatched batched

let test_attest_many_unbatched_equals_attest_loop () =
  (* With batching off (the default) attest_many must be observably the
     plain attest loop: same verdicts, same per-report verification. *)
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let _host, _co, vids = co_located_vms cloud c 4 in
  let reqs =
    List.mapi
      (fun i vid ->
        { Protocol.vid; property = Property.Runtime_integrity; nonce = Printf.sprintf "n-%d" i })
      vids
  in
  let looped =
    List.map (fun req -> Result.get_ok (fst (Controller.attest controller req))) reqs
  in
  let many, _ = Controller.attest_many controller reqs in
  List.iter2
    (fun (loop : Protocol.controller_report) (_, r) ->
      let r = Result.get_ok r in
      Alcotest.(check string) "same vid" loop.Protocol.vid r.Protocol.vid;
      Alcotest.(check bool) "same status" true
        (loop.Protocol.report.Report.status = r.Protocol.report.Report.status))
    looped many

let test_batch_attest_unknown_vm_refused () =
  (* A vid the cloud server cannot measure refuses the whole batch as a
     hard error: a batch reply always covers exactly what was asked, and
     nothing is silently dropped or fabricated as healthy. *)
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let host, vids, _ = co_located_vms cloud c 4 in
  let as_ = Cloud.attestation_server cloud in
  let items =
    List.map (fun vid -> (vid, Property.Runtime_integrity)) vids
    @ [ ("vm-9999", Property.Runtime_integrity) ]
  in
  let result, _ = Attestation_server.attest_batch as_ ~server:host ~items ~nonce:"nonce-bad-vm-x" in
  (match result with
  | Error (`Server_refused _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Attestation_server.pp_error e
  | Ok _ -> Alcotest.fail "a batch with an unmeasurable vid must be refused");
  (* The same batch without the bogus vid sails through. *)
  let items = List.map (fun vid -> (vid, Property.Runtime_integrity)) vids in
  match fst (Attestation_server.attest_batch as_ ~server:host ~items ~nonce:"nonce-good-x") with
  | Ok reports -> Alcotest.(check int) "served" (List.length items) (List.length reports)
  | Error e -> Alcotest.failf "clean batch failed: %a" Attestation_server.pp_error e

(* --- Detection + response scenarios ----------------------------------------------- *)

let test_malware_detected_and_terminated () =
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ] ()
  in
  let vid = info.Commands.vid in
  let host = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host) in
  let inst = Option.get (Hypervisor.Server.find server vid) in
  ignore (Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm () : Hypervisor.Guest_os.process);
  (match Cloud.Customer.attest c ~vid ~property:Property.Runtime_integrity with
  | Ok { Report.status = Report.Compromised _; _ } -> ()
  | Ok r -> Alcotest.failf "expected compromise, got %a" Report.pp_status r.Report.status
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e);
  (* Periodic attestation triggers the termination response. *)
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 2) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 5);
  Alcotest.(check bool) "terminated" true
    (Controller.vm_state controller ~vid = Some Database.Terminated);
  Alcotest.(check bool) "gone from the hypervisor" true (Hypervisor.Server.find server vid = None);
  match Controller.responses controller with
  | [ r ] ->
      Alcotest.(check string) "termination response" "termination"
        (Controller.strategy_label r.Controller.strategy)
  | rs -> Alcotest.failf "expected one response, got %d" (List.length rs)

let test_availability_attack_migrates_victim () =
  let config = { fast_config with pcpus = 2 } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"ubuntu" ~flavor:"small" ~properties:[ Property.Cpu_availability ]
      ~workload:"busy" ()
  in
  let vid = info.Commands.vid in
  let host0 = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host0) in
  let attacker = Attacks.Availability.attacker_vm ~vid:"att" ~owner:"mallory" () in
  (match
     Hypervisor.Server.launch server
       ~pins:(Attacks.Availability.pins ~victim_pcpu:0 ~helper_pcpu:1)
       attacker
   with
  | Ok _ -> ()
  | Error `Insufficient_memory -> Alcotest.fail "attacker launch failed");
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Cpu_availability
       ~freq:(Sim.Time.sec 5) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 11);
  let host1 = Option.get (Controller.vm_host controller ~vid) in
  Alcotest.(check bool) "victim migrated away" true (host1 <> host0);
  (* After migration the victim runs unobstructed again. *)
  Cloud.run_for cloud (Sim.Time.sec 2);
  let server1 = Option.get (Cloud.find_server cloud host1) in
  let inst = Option.get (Hypervisor.Server.find server1 vid) in
  let sched = Hypervisor.Server.scheduler server1 in
  let r0 = Hypervisor.Credit_scheduler.domain_runtime sched inst.Hypervisor.Server.domain in
  Cloud.run_for cloud (Sim.Time.sec 2);
  let r1 = Hypervisor.Credit_scheduler.domain_runtime sched inst.Hypervisor.Server.domain in
  Alcotest.(check bool) "full share restored" true (r1 - r0 > Sim.Time.of_ms_float 1900.

  )

let test_covert_channel_detected () =
  let config = { fast_config with pcpus = 2 } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  let prng = Sim.Prng.create 11 in
  let bits = Attacks.Covert_channel.random_bits prng 200 in
  Controller.register_workload controller "covert" (fun _flavor () ->
      [ Attacks.Covert_channel.sender_program ~bits () ]);
  let c = Cloud.Customer.create cloud ~name:"bob" in
  let info =
    launch_ok c ~image:"ubuntu" ~flavor:"small" ~properties:[ Property.Covert_channel_free ]
      ~workload:"covert" ()
  in
  let vid = info.Commands.vid in
  let host = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host) in
  let receiver, _ = Attacks.Covert_channel.receiver_vm ~vid:"recv" ~owner:"mallory" () in
  (match Hypervisor.Server.launch server ~pin:0 receiver with
  | Ok _ -> ()
  | Error `Insufficient_memory -> Alcotest.fail "receiver launch failed");
  Cloud.run_for cloud (Sim.Time.sec 10);
  match Cloud.Customer.attest c ~vid ~property:Property.Covert_channel_free with
  | Ok { Report.status = Report.Compromised _; _ } -> ()
  | Ok r -> Alcotest.failf "expected detection, got %a" Report.pp_status r.Report.status
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e

let test_cache_channel_detected_full_pipeline () =
  (* The Covert_channel_free property monitored from BOTH sources: CPU
     bursts and cache-miss patterns (paper 4.4.3's extension point).  The
     cache-channel pair does not share a pCPU, so the CPU-burst source is
     blind to it — only the cache source catches it. *)
  let refs =
    { Interpret.default_refs with
      Interpret.covert_sources = [ Interpret.Cpu_bursts; Interpret.Cache_misses ];
    }
  in
  let config = { fast_config with refs } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"bob" in
  let info =
    launch_ok c ~image:"ubuntu" ~flavor:"small" ~properties:[ Property.Covert_channel_free ] ()
  in
  let vid = info.Commands.vid in
  let host = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host) in
  let cache = Hypervisor.Server.cache server in
  (* Trojan inside the monitored VM: a cache-channel sender keyed to the
     VM's own id, so the Monitor Module attributes the misses to it. *)
  let prng = Sim.Prng.create 17 in
  let bits = Attacks.Covert_channel.random_bits prng 150 in
  let inst = Option.get (Hypervisor.Server.find server vid) in
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu
       (Hypervisor.Server.scheduler server)
       inst.Hypervisor.Server.domain ~pin:1
       (Attacks.Cache_channel.sender_program cache ~owner:vid ~bits ())
      : Hypervisor.Credit_scheduler.vcpu);
  let recv_prog, stream = Attacks.Cache_channel.receiver_program cache ~owner:"recv" () in
  let recv_vm =
    Hypervisor.Vm.make ~vid:"recv" ~owner:"mallory" ~image:Hypervisor.Image.ubuntu
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () -> [ recv_prog ])
      ()
  in
  (match Hypervisor.Server.launch server ~pin:0 recv_vm with
  | Ok _ -> ()
  | Error `Insufficient_memory -> Alcotest.fail "receiver launch failed");
  Cloud.run_for cloud (Sim.Time.sec 3);
  (* The channel really works... *)
  let got = Attacks.Cache_channel.received_bits ~count:(List.length bits) (stream ()) in
  Alcotest.(check (list bool)) "bits leaked through the cache" bits got;
  (* ...and the attestation catches it. *)
  match Cloud.Customer.attest c ~vid ~property:Property.Covert_channel_free with
  | Ok { Report.status = Report.Compromised why; _ } ->
      Alcotest.(check bool) "cache pattern named" true
        (String.length why > 0
        && String.split_on_char ' ' why <> [])
  | Ok r -> Alcotest.failf "expected detection, got %a" Report.pp_status r.Report.status
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e

let test_ima_catches_what_task_diff_misses () =
  (* A visible cryptominer and a trojaned sshd hide from the task-list diff
     (nothing is hidden); the IMA whitelist source catches both. *)
  let refs =
    { Interpret.default_refs with
      Interpret.integrity_sources = [ Interpret.Task_diff; Interpret.Ima_whitelist ];
    }
  in
  let plain_cloud = make_cloud () in
  let ima_cloud = make_cloud ~config:{ fast_config with refs } () in
  let run cloud =
    let controller = Cloud.controller cloud in
    let c = Cloud.Customer.create cloud ~name:"alice" in
    let info =
      launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ] ()
    in
    let vid = info.Commands.vid in
    let host = Option.get (Controller.vm_host controller ~vid) in
    let server = Option.get (Cloud.find_server cloud host) in
    let inst = Option.get (Hypervisor.Server.find server vid) in
    ignore (Attacks.Malware.infect_visible inst.Hypervisor.Server.vm ()
             : Hypervisor.Guest_os.process);
    ignore (Attacks.Malware.trojan_binary inst.Hypervisor.Server.vm ()
             : Hypervisor.Guest_os.process);
    match Cloud.Customer.attest c ~vid ~property:Property.Runtime_integrity with
    | Ok r -> r.Report.status
    | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e
  in
  (match run plain_cloud with
  | Report.Healthy -> () (* the paper's task-diff detector alone is blind here *)
  | s -> Alcotest.failf "task diff unexpectedly flagged: %a" Report.pp_status s);
  match run ima_cloud with
  | Report.Compromised _ -> ()
  | s -> Alcotest.failf "IMA should flag it, got %a" Report.pp_status s

let test_suspend_resume_response () =
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ]
      ~workload:"busy" ()
  in
  let vid = info.Commands.vid in
  (match Controller.respond controller Controller.Suspend_vm ~vid with
  | Ok reaction -> Alcotest.(check bool) "suspension takes time" true (reaction > 0)
  | Error e -> Alcotest.failf "suspend failed: %s" e);
  Alcotest.(check bool) "suspended" true
    (Controller.vm_state controller ~vid = Some Database.Suspended);
  (* After re-attestation the controller resumes the VM (section 5.2 #2). *)
  (match Controller.resume controller ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resume failed: %s" e);
  Alcotest.(check bool) "active again" true
    (Controller.vm_state controller ~vid = Some Database.Active);
  match Cloud.Customer.attest c ~vid ~property:Property.Runtime_integrity with
  | Ok r -> Alcotest.(check bool) "healthy after resume" true (Report.is_healthy r)
  | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e

let test_periodic_reports_verified () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ]
      ~workload:"busy" ()
  in
  let seen = ref 0 in
  (match
     Cloud.Customer.attest_periodic c ~vid:info.Commands.vid
       ~property:Property.Runtime_integrity ~freq:(Sim.Time.sec 2)
       ~on_report:(fun _ -> incr seen)
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 9);
  Alcotest.(check int) "four rounds delivered" 4 !seen;
  Alcotest.(check int) "all chain-verified" 4 (List.length (Cloud.Customer.periodic_reports c));
  Alcotest.(check int) "none forged" 0 (Cloud.Customer.forged_count c);
  (* Stop, and confirm no more arrive. *)
  (match Cloud.Customer.stop_periodic c ~vid:info.Commands.vid ~property:Property.Runtime_integrity with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stop failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 6);
  Alcotest.(check int) "stopped" 4 !seen

(* A customer with a 2 s periodic runtime-integrity subscription on one busy
   VM; counts the reports handed to its callback. *)
let periodic_subscriber () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ]
      ~workload:"busy" ()
  in
  let seen = ref 0 in
  (match
     Cloud.Customer.attest_periodic c ~vid:info.Commands.vid
       ~property:Property.Runtime_integrity ~freq:(Sim.Time.sec 2)
       ~on_report:(fun _ -> incr seen)
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  (cloud, c, info.Commands.vid, seen)

let check_all_verified c seen delivered =
  Alcotest.(check int) "none forged" 0 (Cloud.Customer.forged_count c);
  Alcotest.(check int) "one verified report per delivered tick" delivered
    (List.length (Cloud.Customer.periodic_reports c));
  Alcotest.(check int) "callback per delivered tick" delivered !seen

(* A failed one-time call drops the customer's channel; periodic reports
   that arrive before it reconnects still verify under the controller key
   of the last completed handshake, and so do those after a reconnect. *)
let test_periodic_survives_failed_call () =
  let cloud, c, vid, seen = periodic_subscriber () in
  Cloud.run_for cloud (Sim.Time.sec 5);
  let net = Cloud.net cloud in
  Net.Network.set_adversary net (Net.Fault.blackout ());
  (match Cloud.Customer.describe c ~vid with
  | Error (`Channel _) -> ()
  | _ -> Alcotest.fail "describe must fail under a blackout");
  Net.Network.clear_adversary net;
  Cloud.run_for cloud (Sim.Time.sec 6);
  check_all_verified c seen 5;
  (match Cloud.Customer.describe c ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "describe failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 4);
  check_all_verified c seen 7

(* A tick that ends in an error delivers nothing but still consumes a round
   at the controller; the customer checks each report against the round it
   was attested for, so the later rounds verify. *)
let test_periodic_survives_missed_round () =
  let cloud, c, _vid, seen = periodic_subscriber () in
  Cloud.run_for cloud (Sim.Time.sec 3);
  let net = Cloud.net cloud in
  Net.Network.set_adversary net (Net.Fault.garble_nth 1);
  Cloud.run_for cloud (Sim.Time.sec 2);
  Net.Network.clear_adversary net;
  check_all_verified c seen 1;
  Cloud.run_for cloud (Sim.Time.sec 6);
  check_all_verified c seen 4

let test_random_interval_periodic () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ]
      ~workload:"busy" ()
  in
  let stamps = ref [] in
  (match
     Cloud.Customer.attest_periodic_random c ~vid:info.Commands.vid
       ~property:Property.Runtime_integrity ~min:(Sim.Time.sec 1) ~max:(Sim.Time.sec 4)
       ~on_report:(fun _ -> stamps := Cloud.now cloud :: !stamps)
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 30);
  let n = List.length !stamps in
  (* Mean gap 2.5 s over 30 s -> roughly 8-20 rounds. *)
  Alcotest.(check bool) (Printf.sprintf "rounds in plausible band (got %d)" n) true
    (n >= 8 && n <= 25);
  (* Gaps actually vary (it is not a fixed frequency). *)
  let gaps =
    let rec go = function a :: (b :: _ as rest) -> (a - b) :: go rest | _ -> [] in
    go !stamps
  in
  let distinct = List.sort_uniq compare gaps in
  Alcotest.(check bool) "gaps vary" true (List.length distinct > 2);
  List.iter
    (fun g ->
      Alcotest.(check bool) "gap within bounds" true (g >= Sim.Time.sec 1 && g <= Sim.Time.sec 4))
    gaps;
  Alcotest.(check int) "all verified" n (List.length (Cloud.Customer.periodic_reports c))

let test_suspend_recheck_resumes_after_cleanup () =
  (* Section 5.2 response #2: suspension with re-attestation and automatic
     resume once health returns. *)
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  (* Policy: suspend (rather than terminate) on runtime-integrity loss. *)
  Controller.set_response_policy controller (fun r ->
      match r.Report.status with
      | Report.Compromised _ -> Some Controller.Suspend_vm
      | Report.Healthy | Report.Unknown _ -> None);
  Controller.set_auto_resume controller ~recheck_period:(Sim.Time.sec 3) ~max_rechecks:5 true;
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ] ()
  in
  let vid = info.Commands.vid in
  let host = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host) in
  let inst = Option.get (Hypervisor.Server.find server vid) in
  let proc = Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm () in
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 2) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 4);
  Alcotest.(check bool) "suspended on detection" true
    (Controller.vm_state controller ~vid = Some Database.Suspended);
  (* The operator cleans the malware; the next re-check resumes the VM. *)
  Alcotest.(check bool) "cleanup" true
    (Hypervisor.Guest_os.kill inst.Hypervisor.Server.vm.guest proc.Hypervisor.Guest_os.pid);
  Cloud.run_for cloud (Sim.Time.sec 8);
  Alcotest.(check bool) "auto-resumed" true
    (Controller.vm_state controller ~vid = Some Database.Active)

let test_suspend_recheck_terminates_if_never_clean () =
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  Controller.set_response_policy controller (fun r ->
      match r.Report.status with
      | Report.Compromised _ -> Some Controller.Suspend_vm
      | Report.Healthy | Report.Unknown _ -> None);
  Controller.set_auto_resume controller ~recheck_period:(Sim.Time.sec 2) ~max_rechecks:3 true;
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ] ()
  in
  let vid = info.Commands.vid in
  let host = Option.get (Controller.vm_host controller ~vid) in
  let server = Option.get (Cloud.find_server cloud host) in
  let inst = Option.get (Hypervisor.Server.find server vid) in
  ignore (Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm () : Hypervisor.Guest_os.process);
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 2) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "periodic failed: %a" Cloud.Customer.pp_error e);
  Cloud.run_for cloud (Sim.Time.sec 15);
  Alcotest.(check bool) "terminated after failed rechecks" true
    (Controller.vm_state controller ~vid = Some Database.Terminated)

let test_migration_avoids_corrupt_destination () =
  (* Post-migration attestation (section 5.3): server-2 has a trojaned
     hypervisor; a migration away from server-1 must skip it and land on
     server-3. *)
  let config = { fast_config with corrupt_platforms = [ 1 ] } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info =
    launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[ Property.Runtime_integrity ] ()
  in
  let vid = info.Commands.vid in
  Alcotest.(check (option string)) "starts on a pristine server" (Some "server-1")
    (Controller.vm_host controller ~vid);
  (match Controller.respond controller Controller.Migrate_vm ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migration failed: %s" e);
  Alcotest.(check (option string)) "lands on the other pristine server" (Some "server-3")
    (Controller.vm_host controller ~vid);
  Alcotest.(check bool) "active" true (Controller.vm_state controller ~vid = Some Database.Active)

let test_terminate_via_api () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[] () in
  (match Cloud.Customer.terminate c ~vid:info.Commands.vid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "terminate failed: %a" Cloud.Customer.pp_error e);
  match Cloud.Customer.describe c ~vid:info.Commands.vid with
  | Ok (state, _) -> Alcotest.(check string) "terminated" "terminated" state
  | Error e -> Alcotest.failf "describe failed: %a" Cloud.Customer.pp_error e

(* --- Adversarial scenarios (section 7.2) ---------------------------------------------- *)

let test_network_tampering_detected_not_forged () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  Cloud.run_for cloud (Sim.Time.sec 1);
  (* From now on the Dolev-Yao attacker corrupts every reply on the wire. *)
  Net.Network.set_adversary (Cloud.net cloud)
    (Attacks.Network_attacker.tamper_replies ~offset:60 ~min_len:80 ());
  (match Cloud.Customer.attest c ~vid:info.Commands.vid ~property:Property.Runtime_integrity with
  | Ok _ -> Alcotest.fail "tampered exchange must not produce a report"
  | Error (`Channel _) | Error (`Cloud _) | Error (`Forged _) -> ());
  Net.Network.clear_adversary (Cloud.net cloud);
  (* The system recovers on a fresh channel. *)
  match Cloud.Customer.attest c ~vid:info.Commands.vid ~property:Property.Runtime_integrity with
  | Ok r -> Alcotest.(check bool) "healthy after attack stops" true (Report.is_healthy r)
  | Error e -> Alcotest.failf "recovery failed: %a" Cloud.Customer.pp_error e

let test_report_unforgeable_field_by_field () =
  (* Flip every field of a signed controller report and check the customer-
     side verifier rejects each mutant. *)
  let cloud = make_cloud () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  let vid = info.Commands.vid in
  let nonce = String.make 16 'n' in
  let report, _ =
    Controller.attest controller { Protocol.vid; property = Property.Runtime_integrity; nonce }
  in
  let report = Result.get_ok report in
  let key = Controller.public_key controller in
  let verify r =
    Protocol.verify_controller_report ~key ~expected_vid:vid
      ~expected_property:Property.Runtime_integrity ~expected_nonce:nonce r
  in
  Alcotest.(check bool) "genuine verifies" true (verify report = Ok ());
  let mutants =
    [
      ("vid", { report with Protocol.vid = "vm-0666" });
      ("property", { report with Protocol.property = Property.Startup_integrity });
      ( "status",
        { report with
          Protocol.report = { report.Protocol.report with Report.status = Report.Compromised "x" }
        } );
      ("nonce", { report with Protocol.nonce = String.make 16 'm' });
      ("quote", { report with Protocol.quote = Crypto.Sha256.digest "other" });
      ( "signature",
        { report with
          Protocol.signature =
            (let b = Bytes.of_string report.Protocol.signature in
             Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 1));
             Bytes.to_string b);
        } );
    ]
  in
  List.iter
    (fun (name, mutant) ->
      Alcotest.(check bool) (name ^ " mutant rejected") true (verify mutant <> Ok ()))
    mutants

let test_multiple_attestation_servers () =
  (* Paper 3.2.3: several Attestation Servers, one per cluster.  With two
     AS instances and three servers, attestations route by host cluster
     and every report still verifies end to end. *)
  let config = { fast_config with num_attestation_servers = 2 } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  Alcotest.(check int) "two AS instances" 2 (List.length (Cloud.attestation_servers cloud));
  let c = Cloud.Customer.create cloud ~name:"alice" in
  (* Fill the fleet so VMs land on different clusters. *)
  let vms =
    List.init 3 (fun _ ->
        (launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all ()).Commands.vid)
  in
  let hosts = List.filter_map (fun vid -> Controller.vm_host controller ~vid) vms in
  Alcotest.(check bool) "VMs spread over hosts" true (List.length (List.sort_uniq compare hosts) >= 2);
  List.iter
    (fun vid ->
      match Cloud.Customer.attest c ~vid ~property:Property.Runtime_integrity with
      | Ok r -> Alcotest.(check bool) "verified healthy" true (Report.is_healthy r)
      | Error e -> Alcotest.failf "attest failed: %a" Cloud.Customer.pp_error e)
    vms;
  (* Both AS instances actually served appraisals (startup + runtime). *)
  let counts =
    List.map Attestation_server.attestations_done (Cloud.attestation_servers cloud)
  in
  List.iter
    (fun n -> Alcotest.(check bool) "AS did work" true (n > 0))
    counts

let test_insecure_server_cannot_attest () =
  (* A VM forced onto a non-secure server has no attestation client; the
     attestation must fail rather than fabricate data. *)
  let config = { fast_config with insecure_servers = 1 } in
  let cloud = make_cloud ~config () in
  let controller = Cloud.controller cloud in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:[] () in
  let vid = info.Commands.vid in
  (* Move the record onto the insecure server behind the policy's back. *)
  Database.set_host (Controller.db controller) ~vid (Some "server-3");
  match Cloud.Customer.attest c ~vid ~property:Property.Runtime_integrity with
  | Ok _ -> Alcotest.fail "attestation of an insecure server must fail"
  | Error _ -> ()

let test_rogue_attestation_endpoint () =
  (* A compromised host VM replaces the attestation client with garbage:
     attestations against that server must fail, never fabricate. *)
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  let host = Option.get (Controller.vm_host (Cloud.controller cloud) ~vid:info.Commands.vid) in
  Net.Network.register (Cloud.net cloud)
    (Attestation_client.address_of host)
    (fun _ -> "not-a-real-reply");
  match Cloud.Customer.attest c ~vid:info.Commands.vid ~property:Property.Runtime_integrity with
  | Ok _ -> Alcotest.fail "rogue endpoint must not yield a report"
  | Error _ -> ()

let test_periodic_double_start_rejected () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  let vid = info.Commands.vid in
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 5) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first start failed: %a" Cloud.Customer.pp_error e);
  (match
     Cloud.Customer.attest_periodic c ~vid ~property:Property.Runtime_integrity
       ~freq:(Sim.Time.sec 2) ()
   with
  | Error (`Cloud _) -> ()
  | Ok () -> Alcotest.fail "double start must be rejected"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e);
  (* Stop without an active subscription on another property. *)
  match Cloud.Customer.stop_periodic c ~vid ~property:Property.Cpu_availability with
  | Error (`Cloud _) -> ()
  | Ok () -> Alcotest.fail "stop without start must be rejected"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e

let test_periodic_rate_limit () =
  let cloud = make_cloud () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  let info = launch_ok c ~image:"cirros" ~flavor:"small" ~properties:Property.all () in
  match
    Cloud.Customer.attest_periodic c ~vid:info.Commands.vid
      ~property:Property.Runtime_integrity ~freq:(Sim.Time.ms 10) ()
  with
  | Error (`Cloud "frequency too high") -> ()
  | Ok () -> Alcotest.fail "abusive frequency must be rejected"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e

let test_capacity_exhaustion () =
  (* Tiny servers: the first large VM per server fits, the next run out. *)
  let config = { fast_config with mem_mb = 9000 } in
  let cloud = make_cloud ~config () in
  let c = Cloud.Customer.create cloud ~name:"alice" in
  for _ = 1 to 3 do
    ignore (launch_ok c ~image:"cirros" ~flavor:"large" ~properties:[] ())
  done;
  match Cloud.Customer.launch c ~image:"cirros" ~flavor:"large" () with
  | Error (`Cloud "no qualified server") -> ()
  | Ok _ -> Alcotest.fail "fleet is full; launch must fail"
  | Error e -> Alcotest.failf "unexpected: %a" Cloud.Customer.pp_error e

let interpret_never_crashes =
  (* The interpreter is a total function over arbitrary measurement lists. *)
  let value_gen =
    let open QCheck.Gen in
    oneof
      [
        map (fun s -> Monitors.Measurement.Measured_platform s) string;
        map (fun s -> Monitors.Measurement.Measured_image s) string;
        map
          (fun a -> Monitors.Measurement.Measured_histogram (Array.map abs a))
          (array_size (int_range 0 30) nat);
        map
          (fun a -> Monitors.Measurement.Measured_miss_windows (Array.map abs a))
          (array_size (int_range 0 60) nat);
        map2
          (fun (vtime, steal) window ->
            Monitors.Measurement.Measured_cpu { vtime; steal; window; vcpus = 1 })
          (pair nat nat) nat;
        map2
          (fun kernel visible -> Monitors.Measurement.Measured_tasks { kernel; visible })
          (list_size (int_range 0 4) string)
          (list_size (int_range 0 4) string);
      ]
  in
  QCheck.Test.make ~name:"interpret is total" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl Property.all) (list_size (int_range 0 4) value_gen)))
    (fun (property, values) ->
      let _status, _evidence =
        Interpret.interpret Interpret.default_refs ~image_name:(Some "ubuntu") property values
      in
      true)

(* --- Experiment registry and its gates ------------------------------------ *)

module R = Experiments.Registry

let registry_names = List.map (fun (e : R.entry) -> e.name) R.entries

let test_registry_names_unique () =
  Alcotest.(check int) "no duplicate names"
    (List.length registry_names)
    (List.length (List.sort_uniq compare registry_names))

(* bench/main.exe --list prints these in this order; scripts read that
   inventory. *)
let test_registry_list_order () =
  Alcotest.(check (list string))
    "table order"
    [
      "fig4"; "fig5"; "fig6"; "fig7"; "fig9"; "fig10"; "fig11"; "verify"; "cache"; "faults";
      "fleet"; "monitor"; "batch"; "audit"; "crypto"; "fuzz"; "backends"; "protocols";
      "ablations";
    ]
    registry_names

(* cloudmonatt experiment resolves its arguments with [select]. *)
let test_registry_select () =
  List.iter
    (fun name ->
      match R.select [ name ] with
      | Ok [ e ] -> Alcotest.(check string) "selects itself" name e.R.name
      | _ -> Alcotest.failf "%s not accepted" name)
    registry_names;
  (match R.select [ "all" ] with
  | Ok all -> Alcotest.(check int) "all is every entry" (List.length R.entries) (List.length all)
  | Error _ -> Alcotest.fail "all rejected");
  match R.select [ "fleet"; "no-such" ] with
  | Error unknown -> Alcotest.(check (list string)) "unknown reported" [ "no-such" ] unknown
  | Ok _ -> Alcotest.fail "unknown name accepted"

(* Each gate passes on a real run and fails on a doctored copy of it, so
   every planted case proves its gate can fire. *)
let test_gate_monitor () =
  let module M = Experiments.Monitor_exp in
  let r = M.run ~seed:2015 ~scale:`Smoke () in
  Alcotest.(check bool) "real run clean" true (M.clean r);
  let doctor f =
    match r.M.rows with
    | row :: rest -> { r with M.rows = { row with M.r = f row.M.r } :: rest }
    | [] -> Alcotest.fail "no monitor rows"
  in
  Alcotest.(check bool) "entry_dups = 1" false
    (M.clean (doctor (fun d -> { d with Fleet.Driver.mon_entry_dups = 1 })));
  Alcotest.(check bool) "probe ledger off by one" false
    (M.clean (doctor (fun d -> { d with Fleet.Driver.mon_shed = d.Fleet.Driver.mon_shed + 1 })))

let test_gate_fleet () =
  let module F = Experiments.Fleet_exp in
  let r = F.run ~seed:2015 ~scale:`Smoke () in
  Alcotest.(check bool) "real run clean" true (F.clean r);
  let with_curve curve = { r with F.sharded = { r.F.sharded with F.curve } } in
  let curve = r.F.sharded.F.curve in
  Alcotest.(check bool) "one-point curve" false (F.clean (with_curve [ List.hd curve ]));
  Alcotest.(check bool) "curve not starting at 1" false
    (F.clean (with_curve (List.map (fun row -> { row with F.domains = row.F.domains + 1 }) curve)))

let test_gate_backends () =
  let module B = Experiments.Backends_exp in
  let r = B.run ~seed:2015 () in
  Alcotest.(check bool) "real run clean" true (B.clean r);
  let starved =
    List.map
      (fun (kind, n) -> (kind, if kind = "evtpm" then 0 else n))
      r.B.fleet.Fleet.Driver.served_by_backend
  in
  Alcotest.(check bool) "a backend served 0" false
    (B.clean { r with B.fleet = { r.B.fleet with Fleet.Driver.served_by_backend = starved } })

let test_gate_protocols () =
  let module P = Experiments.Protocols_exp in
  let r = P.run ~seed:2015 () in
  Alcotest.(check bool) "real run clean" true (P.clean r);
  let unattacked =
    List.map
      (fun (row : P.symbolic_row) -> if row.P.weakened then { row with P.attacks = 0 } else row)
      r.P.symbolic
  in
  Alcotest.(check bool) "weakened term with 0 attacks" false
    (P.clean { r with P.symbolic = unattacked });
  let unweakened = List.filter (fun (row : P.symbolic_row) -> not row.P.weakened) r.P.symbolic in
  Alcotest.(check bool) "fewer than 3 weakened terms" false
    (P.clean { r with P.symbolic = unweakened })

let test_gate_faults () =
  let module F = Experiments.Faults in
  let r = F.run ~seed:2015 ~rounds:3 () in
  Alcotest.(check bool) "real run clean" true (F.clean r);
  let doctor label f =
    List.map (fun (row : F.row) -> if row.F.label = label then f row else row) r
  in
  let healthy_to f (row : F.row) = f { row with F.healthy = row.F.healthy - 1 } in
  Alcotest.(check bool) "an error on a lossy row" false
    (F.clean (doctor "p=0.10" (healthy_to (fun row -> { row with F.errors = 1 }))));
  Alcotest.(check bool) "a round unaccounted" false
    (F.clean (doctor "p=0.30" (healthy_to Fun.id)));
  Alcotest.(check bool) "clean row degraded" false
    (F.clean (doctor "clean" (healthy_to (fun row -> { row with F.unknown = 1 }))));
  Alcotest.(check bool) "blackout row Healthy" false
    (F.clean
       (doctor "blackout" (fun row -> { row with F.healthy = 1; unknown = row.F.unknown - 1 })));
  Alcotest.(check bool) "no blackout row" false
    (F.clean (List.filter (fun (row : F.row) -> row.F.label <> "blackout") r))

let test_gate_verify () =
  let module P = Experiments.Protocols_exp in
  let rows = P.verification () in
  Alcotest.(check bool) "real run verified" true (P.verified rows);
  (* One doctored row (the no-encryption variant) must trip the gate. *)
  let doctor f =
    List.map
      (fun (row : P.symbolic_row) ->
        if Copland.Phrase.to_string row.P.term = "ae0.0" then f row else row)
      rows
  in
  Alcotest.(check bool) "violated set differs from expected" false
    (P.verified (doctor (fun row -> { row with P.violated = List.tl row.P.violated })));
  Alcotest.(check bool) "weakened row with 0 attacks" false
    (P.verified (doctor (fun row -> { row with P.attacks = 0 })))

let test_gate_audit () =
  let module A = Experiments.Audit_exp in
  let interval = Sim.Time.sec 1 in
  let d = A.detection_run ~seed:2015 ~interval in
  let result detections = { A.seed = 2015; scale = "smoke"; rows = []; detections } in
  Alcotest.(check bool) "real detection clean" true (A.clean (result [ d ]));
  Alcotest.(check bool) "detection outside its interval" false
    (A.clean (result [ { d with A.detected_at = Some (d.A.forked_at + (2 * interval)) } ]));
  Alcotest.(check bool) "fork never detected" false
    (A.clean (result [ { d with A.detected_at = None } ]));
  Alcotest.(check bool) "no detection scenario" false (A.clean (result []))

let test_gate_crypto () =
  let module C = Experiments.Crypto_bench in
  let result crt_speedup_1024 =
    {
      C.scale = "planted";
      key_bits = [ 1024 ];
      sign =
        [ { C.bits = 1024; crt = true; window = true; ops_per_s = 500.0; ms_per_op = 2.0; iters = 5 } ];
      verify = [ { C.v_bits = 1024; v_ops_per_s = 9000.0; v_ms_per_op = 0.1; v_iters = 5 } ];
      memo = { C.m_bits = 1024; hit_ops_per_s = 1e6; miss_ops_per_s = 9000.0; hit_speedup = 100.0 };
      heap = [ { C.h_size = 1024; h_ops_per_s = 1e7; h_ns_per_op = 100.0; h_iters = 5000 } ];
      tpm = [];
      sign_speedup = [];
      seed_speedup = [];
      crt_speedup_1024;
    }
  in
  Alcotest.(check bool) "CRT 3x faster" true (C.clean (result 3.0));
  Alcotest.(check bool) "CRT ratio 1.0" false (C.clean (result 1.0))

(* A real campaign is too slow for tier 1: a clean result built by hand,
   doctored three ways. *)
let test_gate_fuzz () =
  let module F = Experiments.Fuzz_exp in
  let report =
    { Fuzz.Campaign.seed0 = 2015; runs = 20; ops_per_run = 30; total_ops = 600; total_vms = 40;
      total_attests = 200; failures = []; determinism_mismatches = 0; batch_checked = 8;
      batch_mismatches = [] }
  in
  let caught =
    { F.bug_name = "planted"; caught = true; found_at_seed = 7; shrunk_ops = 3; repro = "" }
  in
  let r =
    { F.seed = 2015; scale = "smoke"; report; fleet_runs = 10; fleet_violations = [];
      planted = [ caught ] }
  in
  Alcotest.(check bool) "clean result" true (F.clean r);
  Alcotest.(check bool) "no batch twins" false
    (F.clean { r with F.report = { report with batch_checked = 0 } });
  Alcotest.(check bool) "planted mutant not caught" false
    (F.clean { r with F.planted = [ { caught with F.caught = false } ] });
  Alcotest.(check bool) "batch mismatch" false
    (F.clean { r with F.report = { report with batch_mismatches = [ (2015, "differs") ] } })

(* --- EXPERIMENTS.md stays the code's own numbers -------------------------- *)

(* The Fig. 9 and Fig. 11 tables in EXPERIMENTS.md, rendered from the
   experiments at the bench seed: a cost change that moves them fails here
   until the doc is regenerated. *)
let doc_table ~heading =
  (* dune runs tests in _build/default/test; a direct run starts at the root *)
  let path = if Sys.file_exists "../EXPERIMENTS.md" then "../EXPERIMENTS.md" else "EXPERIMENTS.md" in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let rec after_heading = function
    | [] -> Alcotest.failf "EXPERIMENTS.md has no %S section" heading
    | l :: rest -> if String.starts_with ~prefix:heading l then rest else after_heading rest
  in
  let rec table = function
    | l :: rest when String.starts_with ~prefix:"|" l -> l :: table rest
    | _ -> []
  in
  let rec first_table = function
    | [] -> []
    | l :: _ as ls when String.starts_with ~prefix:"|" l -> table ls
    | _ :: rest -> first_table rest
  in
  String.concat "\n" (first_table (after_heading lines))

let test_doc_fig9 () =
  let stage (r : Experiments.Fig9.row) l = List.assoc l r.stages in
  let rows =
    List.map
      (fun (r : Experiments.Fig9.row) ->
        Printf.sprintf "| %s | %s | %.0f | %.0f | %.0f | %.0f | %.0f | %.0f | %.1f%% |" r.image
          r.flavor (stage r "scheduling") (stage r "networking") (stage r "mapping")
          (stage r "spawning") (stage r "attestation") r.total_ms r.attestation_pct)
      (Experiments.Fig9.run ~seed:2015 ())
  in
  Alcotest.(check string) "Figure 9 table"
    (String.concat "\n"
       ("| image | flavor | sched | network | mapping | spawn | **attest** | total | att% |"
       :: "|---|---|---|---|---|---|---|---|---|" :: rows))
    (doc_table ~heading:"## Figure 9")

let test_doc_fig11 () =
  let rows =
    List.map
      (fun (r : Experiments.Fig11.row) ->
        Printf.sprintf "| %s | %s | %.0f | %.0f | %.0f |" r.strategy r.flavor r.attestation_ms
          r.response_ms (r.attestation_ms +. r.response_ms))
      (Experiments.Fig11.run ~seed:2015 ())
  in
  Alcotest.(check string) "Figure 11 table"
    (String.concat "\n"
       ("| response | flavor | attestation | response | total |"
       :: "|---|---|---|---|---|" :: rows))
    (doc_table ~heading:"## Figure 11")

let () =
  Alcotest.run "integration"
    [
      ( "launch",
        [
          Alcotest.test_case "unmonitored: 4 stages" `Quick test_launch_unmonitored;
          Alcotest.test_case "monitored: 5 stages" `Quick test_launch_monitored_five_stages;
          Alcotest.test_case "unknown image" `Quick test_launch_unknown_image;
          Alcotest.test_case "tampered image rejected" `Quick test_launch_tampered_image_rejected;
          Alcotest.test_case "corrupt platform avoided" `Quick test_corrupt_platform_avoided;
          Alcotest.test_case "no qualified server" `Quick test_no_qualified_server;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "all properties healthy" `Quick test_attest_all_properties_healthy;
          Alcotest.test_case "cross-customer refused" `Quick
            test_attest_other_customers_vm_refused;
          Alcotest.test_case "unknown vm" `Quick test_attest_unknown_vm;
          Alcotest.test_case "AS history" `Quick test_as_history_recorded;
        ] );
      ( "batched-attestation",
        [
          Alcotest.test_case "batch end to end" `Quick test_batch_attest_end_to_end;
          Alcotest.test_case "batched = unbatched verdicts" `Quick
            test_attest_many_batched_matches_unbatched;
          Alcotest.test_case "attest_many default = attest loop" `Quick
            test_attest_many_unbatched_equals_attest_loop;
          Alcotest.test_case "unmeasurable vid refuses batch" `Quick
            test_batch_attest_unknown_vm_refused;
        ] );
      ( "detection-response",
        [
          Alcotest.test_case "malware -> terminate" `Quick test_malware_detected_and_terminated;
          Alcotest.test_case "availability attack -> migrate" `Quick
            test_availability_attack_migrates_victim;
          Alcotest.test_case "covert channel detected" `Quick test_covert_channel_detected;
          Alcotest.test_case "cache channel detected (full pipeline)" `Quick
            test_cache_channel_detected_full_pipeline;
          Alcotest.test_case "IMA catches what task-diff misses" `Quick
            test_ima_catches_what_task_diff_misses;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume_response;
          Alcotest.test_case "periodic verified" `Quick test_periodic_reports_verified;
          Alcotest.test_case "periodic survives a failed call" `Quick
            test_periodic_survives_failed_call;
          Alcotest.test_case "periodic survives a missed round" `Quick
            test_periodic_survives_missed_round;
          Alcotest.test_case "random-interval periodic" `Quick test_random_interval_periodic;
          Alcotest.test_case "suspend-recheck resumes" `Quick
            test_suspend_recheck_resumes_after_cleanup;
          Alcotest.test_case "suspend-recheck terminates" `Quick
            test_suspend_recheck_terminates_if_never_clean;
          Alcotest.test_case "migration avoids corrupt destination" `Quick
            test_migration_avoids_corrupt_destination;
          Alcotest.test_case "terminate via API" `Quick test_terminate_via_api;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "tampering detected, never forged" `Quick
            test_network_tampering_detected_not_forged;
          Alcotest.test_case "report unforgeable field-by-field" `Quick
            test_report_unforgeable_field_by_field;
          Alcotest.test_case "insecure server cannot attest" `Quick
            test_insecure_server_cannot_attest;
          Alcotest.test_case "multiple attestation servers" `Quick
            test_multiple_attestation_servers;
          Alcotest.test_case "rogue attestation endpoint" `Quick
            test_rogue_attestation_endpoint;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "periodic double start" `Quick test_periodic_double_start_rejected;
          Alcotest.test_case "periodic rate limit" `Quick test_periodic_rate_limit;
          Alcotest.test_case "capacity exhaustion" `Quick test_capacity_exhaustion;
          QCheck_alcotest.to_alcotest interpret_never_crashes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "list order" `Quick test_registry_list_order;
          Alcotest.test_case "select accepts every name" `Quick test_registry_select;
          Alcotest.test_case "monitor gate fires" `Quick test_gate_monitor;
          Alcotest.test_case "fleet gate fires" `Quick test_gate_fleet;
          Alcotest.test_case "backends gate fires" `Quick test_gate_backends;
          Alcotest.test_case "protocols gate fires" `Quick test_gate_protocols;
          Alcotest.test_case "verify gate fires" `Quick test_gate_verify;
          Alcotest.test_case "audit gate fires" `Quick test_gate_audit;
          Alcotest.test_case "crypto gate fires" `Quick test_gate_crypto;
          Alcotest.test_case "fuzz gate fires" `Quick test_gate_fuzz;
          Alcotest.test_case "faults gate fires" `Quick test_gate_faults;
        ] );
      ( "docs",
        [
          Alcotest.test_case "Figure 9 table matches EXPERIMENTS.md" `Quick test_doc_fig9;
          Alcotest.test_case "Figure 11 table matches EXPERIMENTS.md" `Quick test_doc_fig11;
        ] );
    ]
