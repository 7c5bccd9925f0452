(** Guest operating-system model.

    Holds the kernel task list of a VM.  A rootkit can mark processes as
    hidden: the in-guest [ps] view filters them out, while the raw kernel
    memory (what a hypervisor-level VM-introspection tool reads) still
    contains them.  The difference is exactly what the Runtime Integrity
    property of paper section 4.3 detects. *)

type process = {
  pid : int;
  name : string;
  hidden : bool;
  binary_hash : string;  (** hash of the executable, as an IMA-style
                             measurement agent would record at exec time *)
}

val pristine_hash : string -> string
(** The hash of the stock binary with this name (what an appraiser's
    whitelist stores). *)

type t

val create : ?init:string list -> unit -> t
(** [init] names the initial (visible) system processes. *)

val spawn : t -> ?hidden:bool -> ?binary:string -> string -> process
(** [binary] overrides the executable content (a trojaned binary hashes
    differently from the pristine one). *)

val kill : t -> int -> bool

val hide : t -> int -> bool
(** Rootkit action: make an existing process invisible to the guest. *)

val visible_tasks : t -> string list
(** What a query from inside the (possibly compromised) guest returns. *)

val kernel_tasks : t -> string list
(** What introspection of raw kernel memory returns: every process. *)

val ima_log : t -> (string * string) list
(** IMA-style measurement log: (name, binary hash) for every process in
    the kernel, pid order — hidden ones included, since the measurement
    happens at exec time, below the rootkit's filtering. *)

val snapshot : t -> t
(** Deep copy, used by VM suspension and migration. *)
