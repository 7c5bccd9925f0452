(** SPEC2006-like victim programs: bzip2, hmmer and astar as in paper
    Figure 6.  Each is a pure CPU-bound batch job with a fixed amount of
    work; the experiment measures completion time under co-residents. *)

type t = { name : string; work : Sim.Time.t }

val bzip2 : t
val all : t list

val program : t -> on_done:(Sim.Time.t -> unit) -> unit -> Hypervisor.Program.t
(** Runs [work] of compute in 1 ms chunks, reporting the completion time. *)

val vm :
  vid:string ->
  owner:string ->
  t ->
  on_done:(Sim.Time.t -> unit) ->
  Hypervisor.Vm.t
(** A single-vCPU (small-flavor) VM running the benchmark once. *)
