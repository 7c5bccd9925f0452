type row = {
  attacker : string;
  attacker_pct : float;
  victim_pct : float;
  victim_status : Core.Report.status;
}

type result = row list

(* Relative CPU usage of both domains over a profiling window, measured the
   way the Monitor Module does (domain runtime deltas). *)
let scenario attacker =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let victim = Hypervisor.Credit_scheduler.add_domain sched ~name:"victim" ~weight:256 in
  (* The victim loops CPU-bound work (the paper's victim programs). *)
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched victim ~pin:0 (Hypervisor.Program.busy_loop ())
           : Hypervisor.Credit_scheduler.vcpu);
  let att_dom =
    match attacker with
    | "idle" -> None
    | "CPU_avail" ->
        let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"attacker" ~weight:256 in
        ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0
                  (Attacks.Availability.main_program ())
                 : Hypervisor.Credit_scheduler.vcpu);
        ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:1
                  (Attacks.Availability.helper_program ())
                 : Hypervisor.Credit_scheduler.vcpu);
        Some att
    | bench_name -> (
        match Workloads.Cloud_bench.of_name bench_name with
        | None -> invalid_arg ("fig7: unknown attacker " ^ bench_name)
        | Some bench ->
            let att =
              Hypervisor.Credit_scheduler.add_domain sched ~name:"attacker" ~weight:256
            in
            ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0
                      (Hypervisor.Program.duty_cycle ~run:bench.run ~idle:bench.idle)
                     : Hypervisor.Credit_scheduler.vcpu);
            Some att)
  in
  (* Warm up, then profile a window. *)
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  let v0 = Hypervisor.Credit_scheduler.domain_runtime sched victim in
  let w0 = Hypervisor.Credit_scheduler.domain_waittime sched victim in
  let a0 =
    match att_dom with
    | Some d -> Hypervisor.Credit_scheduler.domain_runtime sched d
    | None -> 0
  in
  let window = Sim.Time.sec 5 in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let victim_vtime = Hypervisor.Credit_scheduler.domain_runtime sched victim - v0 in
  let victim_steal = Hypervisor.Credit_scheduler.domain_waittime sched victim - w0 in
  let attacker_vtime =
    match att_dom with
    | Some d -> Hypervisor.Credit_scheduler.domain_runtime sched d - a0
    | None -> 0
  in
  let pct v = 100.0 *. float_of_int v /. float_of_int window in
  let victim_status, _evidence =
    Core.Interpret.interpret ~image_name:None Core.Property.Cpu_availability
      [
        Monitors.Measurement.Measured_cpu
          { vtime = victim_vtime; steal = victim_steal; window; vcpus = 1 };
      ]
  in
  { attacker; attacker_pct = pct attacker_vtime; victim_pct = pct victim_vtime; victim_status }

let run () = List.map scenario Fig6.attacker_configs

let print rows =
  Common.section "Figure 7: relative CPU usage, attacker vs victim";
  Printf.printf "%-10s %14s %12s   %s\n" "attacker" "attacker CPU" "victim CPU" "availability verdict";
  List.iter
    (fun r ->
      Printf.printf "%-10s %13.1f%% %11.1f%%   %s\n" r.attacker r.attacker_pct r.victim_pct
        (Format.asprintf "%a" Core.Report.pp_status r.victim_status))
    rows
