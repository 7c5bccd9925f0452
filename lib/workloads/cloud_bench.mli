(** The six cloud service benchmarks of the paper's evaluation (database,
    file, web, app, stream, mail), modelled as compute/IO duty cycles.
    What Figures 6, 7 and 10 depend on is each service's CPU-bound vs
    IO-bound character, which these profiles reproduce. *)

type t = { name : string; run : Sim.Time.t; idle : Sim.Time.t; cpu_bound : bool }

val database : t
val web : t

val all : t list
val of_name : string -> t option

val duty : t -> float
(** Fraction of time the service wants the CPU when unobstructed. *)

val programs : t -> vcpus:int -> unit -> Hypervisor.Program.t list
(** One duty-cycle program per vCPU. *)

val vm : vid:string -> owner:string -> t -> Hypervisor.Vm.t
(** A large-flavor VM descriptor running this benchmark, as in the paper's
    runtime-attestation experiment. *)
