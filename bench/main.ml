(* Benchmark harness: runs the experiment table ({!Experiments.Registry}).

   Usage: main.exe [--list] [--json FILE] [EXPERIMENT...|all]
   With no experiment, everything runs.  Unknown names abort with a listing;
   --list prints one "name: description" line per experiment and exits 0.

   Each experiment that returns JSON writes it to BENCH_<name>.json, a
   byte-stable trajectory artifact.  With --json FILE (or
   $CLOUDMONATT_BENCH_JSON) every result goes instead into FILE, as one
   object keyed by experiment name plus a "host" object pairing each run
   with its real wall-clock time and GC counters.  The exit status is 1
   when any experiment's gate fails. *)

module Registry = Experiments.Registry
module Json = Experiments.Json

let seed = 2015

(* Host-side observability: real elapsed time and GC pressure of each
   experiment, so the simulated-latency trajectory in the artifacts is
   paired with a real-CPU trajectory.  Kept in a separate top-level "host"
   object — the experiment results themselves stay purely simulated (and
   byte-stable across hosts). *)
let observed (e : Registry.entry) =
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let gc0 = Gc.quick_stat () in
  let outcome = e.run ~seed in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  Printf.printf "[%s done in %.1fs host time]\n%!" e.name cpu;
  ( outcome,
    Json.Obj
      [
        ("wall_s", Json.Float wall);
        ("cpu_s", Json.Float cpu);
        ( "gc",
          Json.Obj
            [
              ("minor_collections", Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
              ("major_collections", Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
              ("promoted_words", Json.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
            ] );
      ] )

let usage () =
  Printf.eprintf
    "usage: main.exe [--list] [--json FILE] [EXPERIMENT...]\nvalid experiments: %s\n"
    (String.concat ", "
       ("all" :: List.map (fun (e : Registry.entry) -> e.name) Registry.entries))

let parse_args argv =
  let rec go names json = function
    | [] -> (List.rev names, json)
    | "--list" :: _ ->
        (* Machine-readable inventory for scripts and CI: one
           "name: description" line per experiment (plus the bare "all"
           pseudo-name), success exit. *)
        print_endline "all: every experiment below";
        List.iter
          (fun (e : Registry.entry) -> Printf.printf "%s: %s\n" e.name e.doc)
          Registry.entries;
        exit 0
    | "--json" :: path :: rest -> go names (Some path) rest
    | [ "--json" ] ->
        Printf.eprintf "error: --json needs a FILE argument\n";
        usage ();
        exit 2
    | name :: rest -> go (name :: names) json rest
  in
  let names, json = go [] None argv in
  (* An unknown or misspelled experiment must fail loudly, not silently
     run nothing and exit 0. *)
  match Registry.select (if names = [] then [ "all" ] else names) with
  | Ok selected -> (selected, json)
  | Error unknown ->
      Printf.eprintf "error: unknown experiment%s: %s\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown);
      usage ();
      exit 2

let write path doc =
  match Json.write_file_result path doc with
  | Ok () -> Printf.printf "wrote %s\n%!" path
  | Error msg ->
      Printf.eprintf "error: cannot write %s: %s\n" path msg;
      exit 2

let () =
  let selected, json_arg =
    parse_args (Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
  in
  (* Fail before running anything if the --json destination can never be
     written: an hour-long sweep that dies at write time helps nobody. *)
  (match json_arg with
  | Some path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "error: --json %s: parent directory %s does not exist\n" path dir;
        exit 2
      end
  | None -> ());
  print_endline "CloudMonatt evaluation harness (ISCA'15 figures)";
  let ran = List.map (fun (e : Registry.entry) -> (e.name, observed e)) selected in
  let results =
    List.filter_map (fun (name, (o, _)) -> Option.map (fun j -> (name, j)) o.Registry.json) ran
  in
  let destination =
    match json_arg with Some _ -> json_arg | None -> Sys.getenv_opt "CLOUDMONATT_BENCH_JSON"
  in
  (match destination with
  | Some path ->
      if results = [] then
        Printf.eprintf "warning: --json given but no selected experiment emits JSON\n"
      else
        write path
          (Json.Obj (results @ [ ("host", Json.Obj (List.map (fun (n, (_, h)) -> (n, h)) ran)) ]))
  | None ->
      (* The committed trajectory artifacts must stay byte-identical across
         runs, so each carries only its own result and no host block. *)
      List.iter
        (fun (name, j) -> write ("BENCH_" ^ name ^ ".json") (Json.Obj [ (name, j) ]))
        results);
  (* Fail the process after the artifacts are written, so the JSON and any
     repro file survive for inspection. *)
  if List.exists (fun (_, (o, _)) -> not o.Registry.ok) ran then exit 1
