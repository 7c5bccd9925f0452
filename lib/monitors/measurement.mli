(** Measurement requests and values.

    A {e request} is the "rM" of the attestation protocol — what the
    Attestation Server asks a cloud server's Monitor Module to collect.
    A {e value} is the "M" that comes back, which the Trust Module signs.
    Both have canonical byte encodings: the protocol quotes
    ([Q3 = H(Vid || rM || M || N3)]) hash exactly these bytes. *)

type request =
  | Platform_integrity  (** PCR composite of the measured boot chain *)
  | Vm_image_integrity  (** hash of the VM image recorded at launch *)
  | Task_list  (** VMI: raw kernel task list + guest-visible task list *)
  | Cpu_burst_histogram  (** the 30 Trust Evidence Register interval bins *)
  | Cpu_time of Sim.Time.t  (** VMM profile: CPU usage over this window *)
  | Cache_miss_pattern  (** per-window cache-miss counts since last collection *)
  | Ima_log  (** IMA-style measurement log: every loaded binary's hash *)

type value =
  | Measured_platform of string
  | Measured_image of string
  | Measured_tasks of { kernel : string list; visible : string list }
  | Measured_histogram of int array
  | Measured_cpu of {
      vtime : Sim.Time.t;  (** virtual run time over the window *)
      steal : Sim.Time.t;  (** runnable-but-not-running time over the window *)
      window : Sim.Time.t;
      vcpus : int;
    }
  | Measured_miss_windows of int array
      (** cache misses per accounting window over the detection period *)
  | Measured_ima of (string * string) list
      (** (program name, binary hash) for every process in the kernel *)

val request_to_string : request -> string

val encode_requests : request list -> string
val decode_requests : string -> request list option

val encode_values : value list -> string
val decode_values : string -> value list option
