(* Tests for the attack implementations. *)

let qtest = QCheck_alcotest.to_alcotest

(* --- Covert channel -------------------------------------------------------- *)

let run_channel bits =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:1 () in
  let sender = Hypervisor.Credit_scheduler.add_domain sched ~name:"s" ~weight:256 in
  let receiver = Hypervisor.Credit_scheduler.add_domain sched ~name:"r" ~weight:256 in
  let sp = Attacks.Covert_channel.sender_program ~bits () in
  let rp, stamps = Attacks.Covert_channel.receiver_program () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched sender ~pin:0 sp);
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched receiver ~pin:0 rp);
  Sim.Engine.run_until engine
    (Attacks.Covert_channel.transmission_time ~bits:(List.length bits) + Sim.Time.sec 2);
  (Attacks.Covert_channel.decode (stamps ()), sender)

let covert_roundtrip =
  QCheck.Test.make ~name:"bits transmit losslessly" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 40) bool)
    (fun bits ->
      let received, _ = run_channel bits in
      received = bits)

let test_covert_histogram_bimodal () =
  let prng = Sim.Prng.create 3 in
  let bits = Attacks.Covert_channel.random_bits prng 80 in
  let _, sender = run_channel bits in
  let counts = Hypervisor.Credit_scheduler.burst_counts sender in
  (* Mass concentrated in exactly the two signalling bins. *)
  Alcotest.(check bool) "5ms peak" true (counts.(4) > 10);
  Alcotest.(check bool) "20ms peak" true (counts.(19) > 10);
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check bool) "little else" true (counts.(4) + counts.(19) > total * 9 / 10)

let test_covert_ber_helpers () =
  Alcotest.(check (float 1e-9)) "identical" 0.0
    (Attacks.Covert_channel.bit_error_rate ~sent:[ true; false ] ~received:[ true; false ]);
  Alcotest.(check (float 1e-9)) "one flip of two" 0.5
    (Attacks.Covert_channel.bit_error_rate ~sent:[ true; false ] ~received:[ true; true ]);
  Alcotest.(check (float 1e-9)) "missing counts as error" 0.5
    (Attacks.Covert_channel.bit_error_rate ~sent:[ true; false ] ~received:[ true ]);
  Alcotest.(check (float 1e-9)) "empty sent" 0.0
    (Attacks.Covert_channel.bit_error_rate ~sent:[] ~received:[])

let test_covert_decode_clean_trace () =
  (* A receiver that was never preempted decodes nothing. *)
  let stamps = List.init 100 (fun i -> i * 500) in
  Alcotest.(check (list bool)) "no bits from smooth progress" []
    (Attacks.Covert_channel.decode stamps)

let test_random_bits_deterministic () =
  let a = Attacks.Covert_channel.random_bits (Sim.Prng.create 5) 32 in
  let b = Attacks.Covert_channel.random_bits (Sim.Prng.create 5) 32 in
  Alcotest.(check (list bool)) "deterministic" a b

(* --- Availability attack ----------------------------------------------------- *)

let victim_completion attacker =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let victim = Hypervisor.Credit_scheduler.add_domain sched ~name:"v" ~weight:256 in
  let finish = ref 0 in
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu sched victim ~pin:0
       (Hypervisor.Program.compute_total ~total:(Sim.Time.sec 1)
          ~on_done:(fun t -> finish := t)
          ()));
  if attacker then begin
    let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"a" ~weight:256 in
    ignore
      (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0 (Attacks.Availability.main_program ()));
    ignore
      (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:1
         (Attacks.Availability.helper_program ()))
  end;
  Sim.Engine.run_until engine (Sim.Time.sec 60);
  if !finish = 0 then Sim.Time.sec 60 else !finish

let test_availability_starves () =
  let solo = victim_completion false in
  let attacked = victim_completion true in
  let slowdown = float_of_int attacked /. float_of_int solo in
  Alcotest.(check bool)
    (Printf.sprintf "slowdown > 10x (got %.1fx)" slowdown)
    true (slowdown > 10.0)

let test_availability_attacker_evades_debit () =
  (* The attacker's main vCPU sleeps across every 10 ms tick instant, so it
     is never debited: verify by checking its CPU usage is high while the
     victim's collapses. *)
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let victim = Hypervisor.Credit_scheduler.add_domain sched ~name:"v" ~weight:256 in
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu sched victim ~pin:0 (Hypervisor.Program.busy_loop ()));
  let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"a" ~weight:256 in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0 (Attacks.Availability.main_program ()));
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:1 (Attacks.Availability.helper_program ()));
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let vshare = Sim.Time.to_sec (Hypervisor.Credit_scheduler.domain_runtime sched victim) /. 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "victim below 15%% (got %.0f%%)" (100. *. vshare))
    true (vshare < 0.15)

let test_attacker_vm_shape () =
  let vm = Attacks.Availability.attacker_vm ~vid:"a" ~owner:"m" () in
  Alcotest.(check int) "two vcpus" 2 (List.length (vm.Hypervisor.Vm.programs ()));
  Alcotest.(check (list (option int))) "pins" [ Some 3; Some 1 ]
    (Attacks.Availability.pins ~victim_pcpu:3 ~helper_pcpu:1)

(* --- Cache covert channel ----------------------------------------------------- *)

let run_cache_channel bits =
  let engine = Sim.Engine.create () in
  let cache = Hypervisor.Cache.create ~engine () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let s_dom = Hypervisor.Credit_scheduler.add_domain sched ~name:"s" ~weight:256 in
  let r_dom = Hypervisor.Credit_scheduler.add_domain sched ~name:"r" ~weight:256 in
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu sched s_dom ~pin:0
       (Attacks.Cache_channel.sender_program cache ~owner:"s" ~bits ()));
  let recv, stream = Attacks.Cache_channel.receiver_program cache ~owner:"r" () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched r_dom ~pin:1 recv);
  Sim.Engine.run_until engine (Sim.Time.ms (10 * (List.length bits + 10)));
  (Attacks.Cache_channel.received_bits ~count:(List.length bits) (stream ()), cache)

let cache_channel_roundtrip =
  QCheck.Test.make ~name:"cache channel transmits losslessly" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 50) bool)
    (fun bits ->
      let received, _ = run_cache_channel bits in
      received = bits)

let test_cache_channel_miss_pattern () =
  let prng = Sim.Prng.create 4 in
  let bits = Attacks.Covert_channel.random_bits prng 60 in
  let _, cache = run_cache_channel bits in
  let windows = Hypervisor.Cache.miss_windows cache ~owner:"s" ~since:0 in
  let loud = Array.fold_left (fun acc w -> if w > 50 then acc + 1 else acc) 0 windows in
  let ones = List.length (List.filter Fun.id bits) in
  (* One loud window per transmitted 1 (thrash = group * ways misses). *)
  Alcotest.(check int) "loud windows = ones sent" ones loud

let test_cache_received_bits_slicing () =
  let stream = [ (3, true); (4, true); (5, false); (6, true); (7, false) ] in
  Alcotest.(check (list bool)) "slices start_round..+count" [ true; false ]
    (Attacks.Cache_channel.received_bits ~count:2 stream)

(* --- Malware -------------------------------------------------------------------- *)

let test_malware_hidden () =
  let vm =
    Hypervisor.Vm.make ~vid:"v" ~owner:"o" ~image:Hypervisor.Image.cirros
      ~flavor:Hypervisor.Flavor.small ()
  in
  let p = Attacks.Malware.infect_hidden vm in
  Alcotest.(check bool) "hidden" true p.Hypervisor.Guest_os.hidden;
  Alcotest.(check bool) "not in guest view" false
    (List.mem p.Hypervisor.Guest_os.name (Hypervisor.Guest_os.visible_tasks vm.guest));
  Alcotest.(check bool) "in kernel view" true
    (List.mem p.Hypervisor.Guest_os.name (Hypervisor.Guest_os.kernel_tasks vm.guest))

let test_malware_visible () =
  let vm =
    Hypervisor.Vm.make ~vid:"v" ~owner:"o" ~image:Hypervisor.Image.cirros
      ~flavor:Hypervisor.Flavor.small ()
  in
  let p = Attacks.Malware.infect_visible vm in
  Alcotest.(check bool) "in guest view" true
    (List.mem p.Hypervisor.Guest_os.name (Hypervisor.Guest_os.visible_tasks vm.guest))

let test_tampered_image () =
  let bad = Attacks.Malware.tampered_image Hypervisor.Image.fedora in
  Alcotest.(check bool) "hash differs" false
    (String.equal (Hypervisor.Image.hash bad) (Hypervisor.Image.hash Hypervisor.Image.fedora))

(* --- Network attacker -------------------------------------------------------------- *)

let msg dir payload =
  { Net.Network.seq = 1; src = "a"; dst = "b"; dir; payload }

let test_flip_byte () =
  let adv = Attacks.Network_attacker.flip_byte ~min_len:4 () in
  (match adv (msg Net.Network.Request "abcdef") with
  | Net.Network.Replace p ->
      Alcotest.(check bool) "changed" false (String.equal p "abcdef");
      Alcotest.(check int) "same length" 6 (String.length p)
  | _ -> Alcotest.fail "expected Replace");
  match adv (msg Net.Network.Request "ab") with
  | Net.Network.Pass -> ()
  | _ -> Alcotest.fail "short messages pass"

let test_tamper_replies_only () =
  let adv = Attacks.Network_attacker.tamper_replies ~min_len:1 () in
  (match adv (msg Net.Network.Request "request-bytes") with
  | Net.Network.Pass -> ()
  | _ -> Alcotest.fail "requests pass");
  match adv (msg Net.Network.Reply "reply-bytes") with
  | Net.Network.Replace _ -> ()
  | _ -> Alcotest.fail "replies tampered"

let test_replay_requests () =
  let adv = Attacks.Network_attacker.replay_requests () in
  (match adv (msg Net.Network.Request "first") with
  | Net.Network.Pass -> ()
  | _ -> Alcotest.fail "first passes");
  (match adv (msg Net.Network.Request "second") with
  | Net.Network.Replace p -> Alcotest.(check string) "replays first" "first" p
  | _ -> Alcotest.fail "expected replay");
  match adv (msg Net.Network.Reply "reply") with
  | Net.Network.Pass -> ()
  | _ -> Alcotest.fail "replies pass"

let test_passive_logs () =
  let seen = ref 0 in
  let adv = Attacks.Network_attacker.passive ~on_message:(fun _ -> incr seen) in
  (match adv (msg Net.Network.Request "x") with
  | Net.Network.Pass -> ()
  | _ -> Alcotest.fail "passive passes");
  Alcotest.(check int) "observed" 1 !seen

let test_drop_everything () =
  match Attacks.Network_attacker.drop_everything () (msg Net.Network.Request "x") with
  | Net.Network.Drop -> ()
  | _ -> Alcotest.fail "expected Drop"

let () =
  Alcotest.run "attacks"
    [
      ( "covert-channel",
        [
          qtest covert_roundtrip;
          Alcotest.test_case "histogram bimodal" `Quick test_covert_histogram_bimodal;
          Alcotest.test_case "BER helpers" `Quick test_covert_ber_helpers;
          Alcotest.test_case "decode clean trace" `Quick test_covert_decode_clean_trace;
          Alcotest.test_case "random bits deterministic" `Quick test_random_bits_deterministic;
        ] );
      ( "availability",
        [
          Alcotest.test_case "starves victim >10x" `Quick test_availability_starves;
          Alcotest.test_case "tick evasion" `Quick test_availability_attacker_evades_debit;
          Alcotest.test_case "attacker VM shape" `Quick test_attacker_vm_shape;
        ] );
      ( "cache-channel",
        [
          qtest cache_channel_roundtrip;
          Alcotest.test_case "miss pattern" `Quick test_cache_channel_miss_pattern;
          Alcotest.test_case "received_bits slicing" `Quick test_cache_received_bits_slicing;
        ] );
      ( "malware",
        [
          Alcotest.test_case "hidden process" `Quick test_malware_hidden;
          Alcotest.test_case "visible process" `Quick test_malware_visible;
          Alcotest.test_case "tampered image" `Quick test_tampered_image;
        ] );
      ( "network-attacker",
        [
          Alcotest.test_case "flip byte" `Quick test_flip_byte;
          Alcotest.test_case "tamper replies only" `Quick test_tamper_replies_only;
          Alcotest.test_case "replay requests" `Quick test_replay_requests;
          Alcotest.test_case "passive logs" `Quick test_passive_logs;
          Alcotest.test_case "drop everything" `Quick test_drop_everything;
        ] );
    ]
