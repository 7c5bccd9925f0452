(** The CVM hardware-report device: {!Backend.create} of kind
    [Cvm_report], its platform key endorsed by [root].

    Kept for [perf/], which builds its devices through this module; the
    rest of the repository calls {!Backend.create}. *)

val create :
  ?key_bits:int ->
  ?num_registers:int ->
  ?num_pcrs:int ->
  root:Platform_root.t ->
  seed:string ->
  unit ->
  Backend.t
