open Core

(* --- Detector sweep ------------------------------------------------------ *)

type detector_row = {
  long_burst_ms : float;
  separation : float;
  detected : bool;
  receiver_ber : float;
}

let channel_with_long_burst ~seed long_burst =
  let params =
    { Attacks.Covert_channel.default_params with Attacks.Covert_channel.long_burst }
  in
  let prng = Sim.Prng.create seed in
  let bits = Attacks.Covert_channel.random_bits prng 80 in
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:1 () in
  let sender = Hypervisor.Credit_scheduler.add_domain sched ~name:"s" ~weight:256 in
  let receiver = Hypervisor.Credit_scheduler.add_domain sched ~name:"r" ~weight:256 in
  ignore
    (Hypervisor.Credit_scheduler.add_vcpu sched sender ~pin:0
       (Attacks.Covert_channel.sender_program ~params ~bits ())
      : Hypervisor.Credit_scheduler.vcpu);
  let rp, stamps = Attacks.Covert_channel.receiver_program ~params () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched receiver ~pin:0 rp
           : Hypervisor.Credit_scheduler.vcpu);
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let received = Attacks.Covert_channel.decode ~params (stamps ()) in
  let ber = Attacks.Covert_channel.bit_error_rate ~sent:bits ~received in
  let counts = Hypervisor.Credit_scheduler.burst_counts sender in
  let status, _ = Interpret.histogram_verdict Interpret.default_refs counts in
  let dist = Sim.Stats.Histogram.distribution (Sim.Stats.Histogram.of_counts ~width:1.0 counts) in
  let values = Array.init (Array.length counts) (fun i -> float_of_int i +. 0.5) in
  let separation =
    match Sim.Stats.Two_means.cluster ~values ~mass:dist with
    | Some r -> r.Sim.Stats.Two_means.separation
    | None -> 0.0
  in
  {
    long_burst_ms = Sim.Time.to_ms long_burst;
    separation;
    detected = (match status with Report.Compromised _ -> true | _ -> false);
    receiver_ber = ber;
  }

let detector_sweep ?(seed = 42) () =
  List.map
    (fun ms -> channel_with_long_burst ~seed (Sim.Time.ms ms))
    [ 25; 20; 15; 12; 10; 8; 7; 6 ]

(* --- Benign false positives ----------------------------------------------- *)

type benign_row = { label : string; detected : bool; evidence : string }

let benign_case ~label programs =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:1 () in
  let d = Hypervisor.Credit_scheduler.add_domain sched ~name:"benign" ~weight:256 in
  List.iter
    (fun p -> ignore (Hypervisor.Credit_scheduler.add_vcpu sched d ~pin:0 p
                       : Hypervisor.Credit_scheduler.vcpu))
    programs;
  (* A contending neighbour so slices get cut. *)
  let other = Hypervisor.Credit_scheduler.add_domain sched ~name:"other" ~weight:256 in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched other ~pin:0 (Hypervisor.Program.busy_loop ())
           : Hypervisor.Credit_scheduler.vcpu);
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let counts = Hypervisor.Credit_scheduler.burst_counts d in
  let status, evidence = Interpret.histogram_verdict Interpret.default_refs counts in
  { label; detected = (match status with Report.Compromised _ -> true | _ -> false); evidence }

let benign_false_positives ?seed:_ () =
  [
    benign_case ~label:"steady CPU-bound" [ Hypervisor.Program.busy_loop () ];
    benign_case ~label:"steady 20% duty cycle"
      [ Hypervisor.Program.duty_cycle ~run:(Sim.Time.ms 4) ~idle:(Sim.Time.ms 16) ];
    benign_case ~label:"two-phase 5ms/20ms worker"
      [
        (let phase = ref 0 in
         Hypervisor.Program.make (fun ~now:_ ->
             incr phase;
             if !phase mod 4 = 0 then Hypervisor.Program.Sleep (Sim.Time.ms 10)
             else if !phase mod 2 = 0 then Hypervisor.Program.Compute (Sim.Time.ms 20)
             else Hypervisor.Program.Compute (Sim.Time.ms 5)));
      ];
  ]

(* --- Scheduler tick ablation ------------------------------------------------ *)

type tick_row = { tick_ms : float; slowdown : float }

let attack_slowdown ~tick =
  let config = { Hypervisor.Credit_scheduler.default_config with tick } in
  let run attacker =
    let engine = Sim.Engine.create () in
    let sched = Hypervisor.Credit_scheduler.create ~config ~engine ~pcpus:2 () in
    let victim = Hypervisor.Credit_scheduler.add_domain sched ~name:"v" ~weight:256 in
    let finish = ref 0 in
    ignore
      (Hypervisor.Credit_scheduler.add_vcpu sched victim ~pin:0
         (Hypervisor.Program.compute_total ~total:(Sim.Time.sec 1)
            ~on_done:(fun t -> finish := t)
            ())
        : Hypervisor.Credit_scheduler.vcpu);
    if attacker then begin
      let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"a" ~weight:256 in
      ignore
        (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0
           (Attacks.Availability.main_program ~tick ())
          : Hypervisor.Credit_scheduler.vcpu);
      ignore
        (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:1
           (Attacks.Availability.helper_program ~tick ())
          : Hypervisor.Credit_scheduler.vcpu)
    end;
    Sim.Engine.run_until engine (Sim.Time.sec 120);
    if !finish = 0 then Sim.Time.sec 120 else !finish
  in
  let solo = run false in
  let attacked = run true in
  { tick_ms = Sim.Time.to_ms tick; slowdown = float_of_int attacked /. float_of_int solo }

let tick_sweep ?seed:_ () =
  List.map (fun ms -> attack_slowdown ~tick:(Sim.Time.ms ms)) [ 10; 5; 2; 1 ]

(* --- Detection latency ------------------------------------------------------- *)

type latency_row = { schedule : string; mean_detect_ms : float }

let one_trial ~seed ~schedule ~infect_after =
  let cloud = Cloud.build ~config:(Common.fast_config ~seed) () in
  let controller = Cloud.controller cloud in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  match
    Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
      ~properties:[ Property.Runtime_integrity ] ()
  with
  | Error _ -> None
  | Ok info -> (
      let vid = info.Commands.vid in
      (match
         Cloud.Customer.attest_periodic_scheduled customer ~vid
           ~property:Property.Runtime_integrity ~schedule ()
       with
      | Ok () -> ()
      | Error _ -> ());
      Cloud.run_for cloud infect_after;
      let host = Option.get (Controller.vm_host controller ~vid) in
      let server = Option.get (Cloud.find_server cloud host) in
      let inst = Option.get (Hypervisor.Server.find server vid) in
      let infected_at = Cloud.now cloud in
      ignore (Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm ()
               : Hypervisor.Guest_os.process);
      Cloud.run_for cloud (Sim.Time.minutes 3);
      match Controller.responses controller with
      | r :: _ -> Some (Sim.Time.to_ms (r.Controller.at - infected_at))
      | [] -> None)

let detection_trials = 4

let detection_latency ?(seed = 42) () =
  let schedules =
    [
      ("every 60s", Schedule.fixed (Sim.Time.minutes 1));
      ("every 10s", Schedule.fixed (Sim.Time.sec 10));
      ("every 5s", Schedule.fixed (Sim.Time.sec 5));
      ("random 5-15s", Schedule.random ~min:(Sim.Time.sec 5) ~max:(Sim.Time.sec 15));
    ]
  in
  List.map
    (fun (label, schedule) ->
      let latencies =
        List.filter_map
          (fun i ->
            one_trial ~seed:(seed + i) ~schedule
              ~infect_after:(Sim.Time.ms (1700 * (i + 1))))
          (List.init detection_trials Fun.id)
      in
      let mean =
        match latencies with
        | [] -> nan
        | _ -> List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies)
      in
      { schedule = label; mean_detect_ms = mean })
    schedules

(* --- Printing -------------------------------------------------------------------- *)

let print_detector rows =
  Common.section "Ablation: covert-channel detector vs signalling separation";
  Printf.printf "%-14s %12s %10s %14s\n" "long burst" "separation" "detected" "channel BER";
  List.iter
    (fun r ->
      Printf.printf "%11.0f ms %12.2f %10s %14.3f\n" r.long_burst_ms r.separation
        (if r.detected then "yes" else "NO")
        r.receiver_ber)
    rows

let print_benign rows =
  Common.section "Ablation: detector false positives on benign workloads";
  List.iter
    (fun r ->
      Printf.printf "%-28s %-14s %s\n" r.label
        (if r.detected then "FALSE POSITIVE" else "clean")
        r.evidence)
    rows

let print_ticks rows =
  Common.section "Ablation: availability attack vs scheduler debit tick";
  Printf.printf "%-10s %10s\n" "tick" "slowdown";
  List.iter (fun r -> Printf.printf "%7.0f ms %9.2fx\n" r.tick_ms r.slowdown) rows

let print_latency rows =
  Common.section "Ablation: detection latency vs attestation schedule";
  Printf.printf "%-16s %20s\n" "schedule" "mean time-to-respond";
  List.iter
    (fun r -> Printf.printf "%-16s %17.0f ms\n" r.schedule r.mean_detect_ms)
    rows
