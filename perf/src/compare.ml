(* Compare two sets of [--json] results, metric by metric and workload by
   workload, with the bounds BENCHMARK.json fixes:

   - better: the second set wins at least nine tenths of the paired runs
     and the medians differ by more than the first set's quartile spread,
     or every run of the second set beats every run of the first;
   - unresolved: otherwise, when the first set's spread is wider than the
     metric's bound;
   - worse: the second median is worse than the first by more than the
     bound;
   - unchanged: otherwise. *)

type spec = { name : string; higher_better : bool; bound : float }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let specs_of_benchmark path =
  let doc = Json.of_string (read_file path) in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some name, Some better, Some bound ->
          Some { name; higher_better = String.equal better "higher"; bound }
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" doc)))

(* metric -> value of one workload's result object *)
let metric_values res =
  match Json.member "metrics" res with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (m, v) -> Option.map (fun x -> (m, x)) (Option.bind (Json.member "value" v) Json.to_num))
        ms
  | _ -> []

(* A set: every [*.json] file of a directory, in file-name order; each maps
   workload -> metric -> value. *)
let read_set dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Json.member "results" (Json.of_string (read_file (Filename.concat dir f))) with
         | Some (Json.Obj ws) -> List.map (fun (w, res) -> (w, metric_values res)) ws
         | _ -> failwith (f ^ ": no \"results\" object"))

let values set ~workload ~metric =
  List.filter_map
    (fun run -> Option.bind (List.assoc_opt workload run) (List.assoc_opt metric))
    set

type verdict = Better | Worse | Unresolved | Unchanged

let verdict_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

let verdict spec a b =
  let beats x y = if spec.higher_better then x > y else x < y in
  let q1, ma, q3 = Stats.quartiles a and _, mb, _ = Stats.quartiles b in
  let spread = q3 -. q1 in
  let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let all_beat = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  let gain =
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && beats mb ma
    && Float.abs (mb -. ma) > spread
  in
  let worse_by = (if spec.higher_better then ma -. mb else mb -. ma) /. Float.abs ma in
  if gain || all_beat then Better
  else if spread /. Float.abs ma > spec.bound then Unresolved
  else if worse_by > spec.bound then Worse
  else Unchanged

(* Print one row per end-to-end metric x workload; returns false when any
   row is worse. *)
let run ~benchmark dir_a dir_b =
  let specs = specs_of_benchmark benchmark in
  let a = read_set dir_a and b = read_set dir_b in
  let workloads =
    List.sort_uniq String.compare (List.concat_map (List.map fst) (a @ b))
  in
  Printf.printf "%-14s %-18s %-38s %-38s %8s  %s\n" "workload" "metric"
    (Printf.sprintf "A (%d runs) median [q1, q3]" (List.length a))
    (Printf.sprintf "B (%d runs) median [q1, q3]" (List.length b))
    "delta" "verdict";
  let show xs =
    let q1, m, q3 = Stats.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3
  in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          let va = values a ~workload:w ~metric:spec.name
          and vb = values b ~workload:w ~metric:spec.name in
          if va <> [] && vb <> [] then begin
            let v = verdict spec va vb in
            if v = Worse then ok := false;
            let _, ma, _ = Stats.quartiles va and _, mb, _ = Stats.quartiles vb in
            Printf.printf "%-14s %-18s %-38s %-38s %+7.2f%%  %s (bound %.0f%%)\n" w spec.name
              (show va) (show vb)
              (100. *. (mb -. ma) /. Float.abs ma)
              (verdict_string v) (100. *. spec.bound)
          end)
        specs)
    workloads;
  !ok
