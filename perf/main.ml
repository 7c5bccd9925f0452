(* Host-time benchmark of the attestation system.

     main.exe [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--json FILE] [WORKLOAD...]
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
     main.exe compare DIR_A DIR_B

   Without --workload every named workload (default: all four) runs in a
   child process of its own, so heap peaks and GC state do not carry over
   between workloads.  With --workload the workload runs in this process
   and the last line of standard output is its JSON result.  Every metric
   prints as "workload metric value unit"; any failed output gate makes
   the exit status 1. *)

open Perf_bench

let usage () =
  prerr_endline
    "usage: main.exe [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--json FILE] [WORKLOAD...]\n\
    \       main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n\
    \       main.exe compare DIR_A DIR_B   (run where BENCHMARK.json is)";
  exit 2

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable spans : string option;
  mutable json : string option;
  mutable workload : string option;
  mutable names : string list;
}

let parse args =
  let o =
    {
      seed = 2015;
      seconds = 10.;
      trace = false;
      spans = None;
      json = None;
      workload = None;
      names = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some n -> o.seed <- n; go rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s >= 0. -> o.seconds <- s; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--spans" :: f :: rest -> o.spans <- Some f; go rest
    | "--json" :: f :: rest -> o.json <- Some f; go rest
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | w :: rest when Workloads.find w <> None -> o.names <- o.names @ [ w ]; go rest
    | w :: _ ->
        Printf.eprintf "unknown argument %S (workloads: %s)\n" w
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        usage ()
  in
  go args;
  o

let find_workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()

(* One workload in this process. *)
let run_here o name =
  let w = find_workload name in
  let spans = Option.map (open_out_gen [ Open_append; Open_creat ] 0o644) o.spans in
  let outcome =
    Bench.run ?spans w (Workloads.params Workloads.Full) ~seed:o.seed ~seconds:o.seconds
      ~trace:o.trace
  in
  Option.iter close_out spans;
  Bench.print_lines outcome;
  print_endline (Json.to_string (Bench.to_json outcome));
  exit (Bench.exit_code outcome)

(* Each workload in a child process: re-execute this binary with
   --workload, echo its lines, keep its JSON result. *)
let run_children o =
  let names =
    if o.names = [] then List.map (fun w -> w.Workloads.name) Workloads.all else o.names
  in
  Option.iter (fun f -> close_out (open_out f)) o.spans;
  let ok = ref true in
  let results =
    List.map
      (fun name ->
        let args =
          [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
            "--seconds"; Json.number o.seconds; "--trace"; (if o.trace then "1" else "0") ]
          @ (match o.spans with Some f -> [ "--spans"; f ] | None -> [])
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let lines =
          In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "")
        in
        let status = Unix.close_process_in ic in
        let body, last =
          match List.rev lines with
          | last :: rev_body -> (List.rev rev_body, Some last)
          | [] -> ([], None)
        in
        List.iter print_endline body;
        let result =
          Option.bind last (fun l -> try Some (Json.of_string l) with Json.Parse_error _ -> None)
        in
        (match (status, result) with
        | Unix.WEXITED 0, Some _ -> ()
        | _ ->
            ok := false;
            Printf.printf "# %s FAILED\n" name);
        (name, Option.value ~default:Json.Null result))
      names
  in
  flush stdout;
  (match o.json with
  | None -> ()
  | Some f ->
      Out_channel.with_open_bin f (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("seed", Json.Num (float_of_int o.seed));
                    ("seconds", Json.Num o.seconds);
                    ("trace", Json.Bool o.trace);
                    ("results", Json.Obj results);
                  ]));
          output_char oc '\n'));
  exit (if !ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (if Compare.run ~benchmark:"BENCHMARK.json" a b then 0 else 1)
  | "compare" :: _ -> usage ()
  | args -> (
      let o = parse args in
      match o.workload with
      | Some name -> run_here o name
      | None -> run_children o)
