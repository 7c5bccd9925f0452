(** Integrity Measurement Unit.

    Reads the measured-boot PCRs out of the Trust Module and the VM image
    hash recorded at launch — the measurements behind the Startup Integrity
    property (paper section 4.2). *)

val platform_measurement : Hypervisor.Server.t -> string option
(** PCR composite over the boot-chain registers.  [None] on servers without
    a Trust Module. *)

val image_measurement : Hypervisor.Server.t -> vid:string -> string option
(** Hash of the VM's image as measured when it was launched here. *)
