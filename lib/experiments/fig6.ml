type cell = { victim : string; attacker : string; relative_time : float }

type result = { cells : cell list; attackers : string list; victims : string list }

let attacker_configs =
  "idle" :: List.map (fun b -> b.Workloads.Cloud_bench.name) Workloads.Cloud_bench.all
  @ [ "CPU_avail" ]

(* One scenario: victim pinned to pCPU 0; attacker as configured. *)
let scenario (spec : Workloads.Spec.t) attacker =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let victim = Hypervisor.Credit_scheduler.add_domain sched ~name:"victim" ~weight:256 in
  let finish = ref 0 in
  let prog = Workloads.Spec.program spec ~on_done:(fun t -> finish := t) () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched victim ~pin:0 prog
           : Hypervisor.Credit_scheduler.vcpu);
  (match attacker with
  | "idle" -> ()
  | "CPU_avail" ->
      let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"attacker" ~weight:256 in
      ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0
                (Attacks.Availability.main_program ())
               : Hypervisor.Credit_scheduler.vcpu);
      ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:1
                (Attacks.Availability.helper_program ())
               : Hypervisor.Credit_scheduler.vcpu)
  | bench_name -> (
      match Workloads.Cloud_bench.of_name bench_name with
      | None -> invalid_arg ("fig6: unknown attacker " ^ bench_name)
      | Some bench ->
          let att = Hypervisor.Credit_scheduler.add_domain sched ~name:"attacker" ~weight:256 in
          ignore (Hypervisor.Credit_scheduler.add_vcpu sched att ~pin:0
                    (Hypervisor.Program.duty_cycle ~run:bench.run ~idle:bench.idle)
                   : Hypervisor.Credit_scheduler.vcpu)));
  let horizon = Sim.Time.sec 120 in
  Sim.Engine.run_until engine horizon;
  if !finish = 0 then horizon else !finish

let run () =
  let victims = List.map (fun s -> s.Workloads.Spec.name) Workloads.Spec.all in
  let cells =
    List.concat_map
      (fun spec ->
        let solo = Common.solo_victim_time spec in
        List.map
          (fun attacker ->
            let time = scenario spec attacker in
            {
              victim = spec.Workloads.Spec.name;
              attacker;
              relative_time = Sim.Time.to_sec time /. Sim.Time.to_sec solo;
            })
          attacker_configs)
      Workloads.Spec.all
  in
  { cells; attackers = attacker_configs; victims }

let print r =
  Common.section "Figure 6: victim slowdown under CPU-availability attacks";
  Printf.printf "%-10s" "attacker";
  List.iter (fun v -> Printf.printf " %10s" v) r.victims;
  print_newline ();
  List.iter
    (fun attacker ->
      Printf.printf "%-10s" attacker;
      List.iter
        (fun victim ->
          let cell =
            List.find (fun c -> c.victim = victim && c.attacker = attacker) r.cells
          in
          Printf.printf " %9.2fx" cell.relative_time)
        r.victims;
      print_newline ())
    r.attackers
