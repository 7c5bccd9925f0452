let fast_config ~seed = { Core.Cloud.default_config with seed; key_bits = 512 }

let two_pcpu_config ~seed = { (fast_config ~seed) with pcpus = 2 }

let solo_victim_time (spec : Workloads.Spec.t) =
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:1 () in
  let dom = Hypervisor.Credit_scheduler.add_domain sched ~name:"solo" ~weight:256 in
  let finish = ref 0 in
  let prog = Workloads.Spec.program spec ~on_done:(fun t -> finish := t) () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched dom ~pin:0 prog : Hypervisor.Credit_scheduler.vcpu);
  Sim.Engine.run_until engine (Sim.Time.sec 60);
  if !finish = 0 then Sim.Time.sec 60 else !finish

let bar fraction =
  let n = int_of_float (Float.round (fraction *. 10.0)) in
  let n = if n < 0 then 0 else if n > 60 then 60 else n in
  String.make n '#'

let scale_of_env () =
  match Sys.getenv_opt "CLOUDMONATT_FLEET_SCALE" with
  | Some "smoke" -> `Smoke
  | _ -> `Default

let section title =
  Printf.printf "\n== %s ==\n%!" title

let timed config =
  let t0 = Unix.gettimeofday () in
  let r = Fleet.Driver.run config in
  (r, Unix.gettimeofday () -. t0)

let same_fingerprint = function
  | [] -> true
  | first :: rest ->
      let fp = Fleet.Driver.fingerprint first in
      List.for_all (fun r -> String.equal (Fleet.Driver.fingerprint r) fp) rest
