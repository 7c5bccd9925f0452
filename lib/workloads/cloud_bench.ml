type t = { name : string; run : Sim.Time.t; idle : Sim.Time.t; cpu_bound : bool }

let ms = Sim.Time.ms

(* CPU-bound services demand (nearly) the whole CPU in long bursts, so
   they contend at fair share and almost never earn a wakeup boost;
   IO-bound services sleep on IO most of the time.  The split follows the
   paper's Figure 6: database/web/app are CPU-bound, file/stream/mail are
   IO-bound. *)
let database = { name = "database"; run = ms 200; idle = ms 2; cpu_bound = true }
let web = { name = "web"; run = ms 80; idle = ms 4; cpu_bound = true }
let app = { name = "app"; run = ms 120; idle = ms 3; cpu_bound = true }
let file = { name = "file"; run = ms 2; idle = ms 18; cpu_bound = false }
let stream = { name = "stream"; run = ms 4; idle = ms 16; cpu_bound = false }
let mail = { name = "mail"; run = ms 1; idle = ms 19; cpu_bound = false }

let all = [ database; file; web; app; stream; mail ]

let of_name n = List.find_opt (fun b -> String.equal b.name n) all

let duty b = Sim.Time.to_ms b.run /. (Sim.Time.to_ms b.run +. Sim.Time.to_ms b.idle)

let programs b ~vcpus () =
  List.init vcpus (fun _ -> Hypervisor.Program.duty_cycle ~run:b.run ~idle:b.idle)

let vm ~vid ~owner b =
  let flavor = Hypervisor.Flavor.large in
  Hypervisor.Vm.make ~vid ~owner ~image:Hypervisor.Image.ubuntu ~flavor
    ~programs:(programs b ~vcpus:flavor.Hypervisor.Flavor.vcpus)
    ()
