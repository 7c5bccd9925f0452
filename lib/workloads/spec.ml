type t = { name : string; work : Sim.Time.t }

(* Solo run times; only ratios matter for the relative-time figures. *)
let bzip2 = { name = "bzip2"; work = Sim.Time.ms 2000 }
let hmmer = { name = "hmmer"; work = Sim.Time.ms 2600 }
let astar = { name = "astar"; work = Sim.Time.ms 2200 }

let all = [ bzip2; hmmer; astar ]

let program b ~on_done () =
  Hypervisor.Program.compute_total ~total:b.work ~on_done ()

let vm ~vid ~owner b ~on_done =
  Hypervisor.Vm.make ~vid ~owner ~image:Hypervisor.Image.cirros
    ~flavor:Hypervisor.Flavor.small
    ~programs:(fun () -> [ program b ~on_done () ])
    ()
