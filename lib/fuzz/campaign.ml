type failure = {
  scenario : Op.scenario;
  first : Oracle.violation;
  shrunk : Op.scenario;
  repro : string;
  shrink_replays : int;
}

type report = {
  seed0 : int;
  runs : int;
  ops_per_run : int;
  total_ops : int;
  total_vms : int;
  total_attests : int;
  failures : failure list;
  determinism_mismatches : int;
  batch_checked : int;
  batch_mismatches : (int * string) list;
}

let status_trace (out : Replay.outcome) =
  List.map
    (fun (obs : Oracle.op_obs) ->
      List.map
        (fun (a : Oracle.attest_obs) ->
          match a.a_result with
          | Error _ -> "E"
          | Ok cr -> (
              match cr.Core.Protocol.report.Core.Report.status with
              | Core.Report.Healthy -> "H"
              | Core.Report.Compromised _ -> "C"
              | Core.Report.Unknown _ -> "U"))
        obs.Oracle.attests)
    out.Replay.observations

(* Batching must never change a verdict, only its cost.  Faults are
   replaced (not removed — op indices and slot references must stay put)
   with [Clear_fault] in BOTH twins, because an adversary counting
   messages legitimately hits different messages on the two paths. *)
let batch_equiv ?bug scenario =
  let strip =
    List.map (function Op.Set_fault _ -> Op.Clear_fault | o -> o) scenario.Op.ops
  in
  let unbatch =
    List.map (function Op.Set_batching _ -> Op.Set_batching false | o -> o) strip
  in
  let raised (out : Replay.outcome) =
    List.find_map
      (fun (v : Oracle.violation) -> if v.oracle = "exception" then Some v.detail else None)
      out.violations
  in
  let a = Replay.run ?bug { scenario with Op.ops = strip } in
  let b = Replay.run ?bug { scenario with Op.ops = unbatch } in
  match (raised a, raised b) with
  | Some e, _ | _, Some e -> Some ("twin replay raised: " ^ e)
  | None, None ->
      if status_trace a <> status_trace b then
        Some "batched and unbatched twins delivered different verdict statuses"
      else None

let campaign ?(bug = Replay.No_bug) ?(check_determinism = true)
    ?(check_batch_equiv = true) ?(shrink_budget = 500) ~seed0 ~runs ~ops_per_run () =
  let failures = ref [] in
  let det_mismatches = ref 0 in
  let batch_checked = ref 0 in
  let batch_mismatches = ref [] in
  let total_ops = ref 0 in
  let total_vms = ref 0 in
  let total_attests = ref 0 in
  for i = 0 to runs - 1 do
    let seed = seed0 + i in
    let scenario = Gen.generate ~seed ~ops:ops_per_run in
    total_ops := !total_ops + List.length scenario.Op.ops;
    let out = Replay.run ~bug scenario in
    total_vms := !total_vms + out.Replay.vms_launched;
    total_attests := !total_attests + out.Replay.attests_run;
    if check_determinism && (Replay.run ~bug scenario).Replay.digest <> out.Replay.digest then
      incr det_mismatches;
    (match out.Replay.violations with
    | [] -> ()
    | first :: _ ->
        let shrunk, shrink_replays =
          Shrink.minimize ~bug ~oracle:first.Oracle.oracle
            ~max_replays:shrink_budget scenario
        in
        failures :=
          { scenario; first; shrunk; repro = Op.to_string shrunk; shrink_replays }
          :: !failures);
    if
      check_batch_equiv && out.Replay.violations = []
      && List.exists (function Op.Set_batching true -> true | _ -> false) scenario.Op.ops
    then begin
      incr batch_checked;
      match batch_equiv ~bug scenario with
      | None -> ()
      | Some detail -> batch_mismatches := (seed, detail) :: !batch_mismatches
    end
  done;
  {
    seed0;
    runs;
    ops_per_run;
    total_ops = !total_ops;
    total_vms = !total_vms;
    total_attests = !total_attests;
    failures = List.rev !failures;
    determinism_mismatches = !det_mismatches;
    batch_checked = !batch_checked;
    batch_mismatches = List.rev !batch_mismatches;
  }

let clean r =
  r.failures = [] && r.determinism_mismatches = 0 && r.batch_mismatches = []

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>seed %d: %a@,  shrunk to %d op(s) in %d replay(s)@,  repro: %s@]"
    f.scenario.Op.seed Oracle.pp_violation f.first
    (List.length f.shrunk.Op.ops)
    f.shrink_replays f.repro

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzz campaign: %d runs x %d ops (seeds %d..%d)@,\
     %d ops executed, %d VMs launched, %d attestations@,\
     failures: %d, determinism mismatches: %d, batch twins checked: %d, mismatched: %d@]"
    r.runs r.ops_per_run r.seed0
    (r.seed0 + r.runs - 1)
    r.total_ops r.total_vms r.total_attests (List.length r.failures)
    r.determinism_mismatches r.batch_checked
    (List.length r.batch_mismatches);
  List.iter (fun f -> Format.fprintf ppf "@,%a" pp_failure f) r.failures;
  List.iter
    (fun (seed, detail) -> Format.fprintf ppf "@,[batch-equivalence] seed %d: %s" seed detail)
    r.batch_mismatches
