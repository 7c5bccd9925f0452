(** The experiment table: every paper figure, the section 7.2.2
    verification and every extension, in one ordered list.  Both front
    ends — [bench/main.exe] and [cloudmonatt experiment] — run these
    entries and exit 1 when any gate fails, so adding an experiment means
    adding one row here. *)

type outcome = {
  json : Json.t option;
      (** machine-readable result; the bench harness writes it to
          [BENCH_<name>.json] by default *)
  ok : bool;  (** the experiment's own gate; [true] for table-only entries *)
}

type entry = {
  name : string;
  doc : string;  (** one line, shown by [bench/main.exe --list] *)
  run : seed:int -> outcome;
      (** prints the experiment's table, returns its JSON and evaluates its
          gate (reporting a failure on stderr) *)
}

val entries : entry list
(** In [--list] order. *)

val select : string list -> (entry list, string list) result
(** [select names] is the entries named in [names], in table order, with
    ["all"] standing for every entry; [Error unknown] lists the names that
    match nothing. *)
