let default_tick = Sim.Time.ms 10

(* The main vCPU goes to sleep this long before each tick, and the helper
   sends its wakeup IPI this long after it. *)
let guard = Sim.Time.us 600
let lead = Sim.Time.us 200

let next_tick ~tick now = ((now / tick) + 1) * tick

let main_program ?(tick = default_tick) () =
  let phase = ref `Compute in
  Hypervisor.Program.make (fun ~now ->
      match !phase with
      | `Compute ->
          phase := `Sleep;
          let d = next_tick ~tick now - now - guard in
          if d <= 0 then Hypervisor.Program.Compute (Sim.Time.us 100)
          else Hypervisor.Program.Compute d
      | `Sleep ->
          phase := `Compute;
          (* Sleep "forever": the helper's IPI provides the real wakeup. *)
          Hypervisor.Program.Sleep (Sim.Time.sec 3600))

let helper_program ?(tick = default_tick) () =
  let phase = ref `Sleep in
  Hypervisor.Program.make (fun ~now ->
      match !phase with
      | `Sleep ->
          phase := `Ipi;
          Hypervisor.Program.Sleep (next_tick ~tick now - now + lead)
      | `Ipi ->
          phase := `Sleep;
          Hypervisor.Program.Ipi 0)

let attacker_vm ~vid ~owner () =
  Hypervisor.Vm.make ~vid ~owner ~image:Hypervisor.Image.ubuntu
    ~flavor:Hypervisor.Flavor.medium
    ~programs:(fun () -> [ main_program (); helper_program () ])
    ()

let pins ~victim_pcpu ~helper_pcpu = [ Some victim_pcpu; Some helper_pcpu ]
