(** Minimal JSON emitter (no external dependencies) for machine-readable
    benchmark results. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent] > 0 pretty-prints (default 2).  Non-finite floats
    serialize as [null], keeping the output strictly standard JSON. *)

val write_file_result : string -> t -> (unit, string) result
(** Write [to_string] plus a trailing newline, or return the [Sys_error]
    message when the file cannot be created (e.g. missing parent
    directory), so CLIs can fail with a clean one-line error. *)
