type planted = {
  bug_name : string;
  caught : bool;
  found_at_seed : int;
  shrunk_ops : int;
  repro : string;
}

type result = {
  seed : int;
  scale : string;
  report : Fuzz.Campaign.report;
  fleet_runs : int;
  fleet_violations : Fuzz.Fleet_props.violation list;
  planted : planted list;
}

(* Mutation testing: hunt for the planted bug with the cache oracle, then
   shrink the first catch.  The hunt replays a small pinned corpus of
   directed histories first, then falls back to the campaign's generator
   and seed ladder, so it is as deterministic as the campaign itself.  The
   corpus matters for mutants whose trigger is a rare op sequence: the
   resume mutant needs suspend -> attest -> resume -> attest inside one
   TTL window, which the generator first produces around seed 2510. *)
let resume_corpus = [ "seed=7 ops=L0.1.0;c5000;S0;a0.1;R0;a0.1" ]

(* The rebind mutant needs a vTPM cycle on the e-vTPM host followed by a
   fresh attest of the same VM before any rebind. *)
let rebind_corpus = [ "seed=5 ops=L0.1.0;L0.1.0;vs1;a1.0" ]

(* The lazy-monitor mutant only wakes at op boundaries, so it needs an
   armed monitor followed by one advance longer than the freshness bound. *)
let monitor_corpus = [ "seed=3 ops=L0.1.0;me200;t5000" ]

let hunt ?(corpus = []) ?(oracle = "cache-consistency") ~bug ~bug_name ~seed ~max_runs ~ops
    () =
  let uncaught = { bug_name; caught = false; found_at_seed = -1; shrunk_ops = 0; repro = "" } in
  let catches = Fuzz.Shrink.triggers ~bug ~oracle in
  let finish scenario =
    let shrunk, _ = Fuzz.Shrink.minimize ~bug ~oracle scenario in
    {
      bug_name;
      caught = true;
      found_at_seed = scenario.Fuzz.Op.seed;
      shrunk_ops = List.length shrunk.Fuzz.Op.ops;
      repro = Fuzz.Op.to_string shrunk;
    }
  in
  match List.find_opt catches (List.filter_map Fuzz.Op.of_string corpus) with
  | Some scenario -> finish scenario
  | None ->
      let rec go i =
        if i >= max_runs then uncaught
        else
          let scenario = Fuzz.Gen.generate ~seed:(seed + i) ~ops in
          if catches scenario then finish scenario else go (i + 1)
      in
      go 0

let run ?(seed = 2015) ?(scale = Common.scale_of_env ()) () =
  let runs_default, scale_name =
    match scale with `Default -> (1000, "default") | `Smoke -> (200, "smoke")
  in
  let runs =
    match Option.bind (Sys.getenv_opt "CLOUDMONATT_FUZZ_RUNS") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> runs_default
  in
  let ops_per_run = 30 in
  let report =
    Fuzz.Campaign.campaign ~seed0:seed ~runs ~ops_per_run ()
  in
  let fleet_runs = max 10 (runs / 8) in
  let fleet_violations = Fuzz.Fleet_props.campaign ~seed0:seed ~runs:fleet_runs in
  let hunt_runs = max 50 (runs / 4) in
  let planted =
    [
      hunt ~bug:Fuzz.Replay.Skip_invalidate_on_migrate ~bug_name:"skip-invalidate-on-migrate"
        ~seed ~max_runs:hunt_runs ~ops:ops_per_run ();
      hunt ~corpus:resume_corpus ~bug:Fuzz.Replay.Skip_invalidate_on_resume
        ~bug_name:"skip-invalidate-on-resume" ~seed ~max_runs:hunt_runs ~ops:ops_per_run ();
      hunt ~corpus:rebind_corpus ~oracle:"vtpm-stale-binding" ~bug:Fuzz.Replay.Rebind_on_restore
        ~bug_name:"rebind-on-restore" ~seed ~max_runs:hunt_runs ~ops:ops_per_run ();
      hunt ~corpus:monitor_corpus ~oracle:"monitor-freshness" ~bug:Fuzz.Replay.Lazy_monitor
        ~bug_name:"lazy-monitor" ~seed ~max_runs:hunt_runs ~ops:ops_per_run ();
    ]
  in
  { seed; scale = scale_name; report; fleet_runs; fleet_violations; planted }

let clean r =
  Fuzz.Campaign.clean r.report
  && r.report.Fuzz.Campaign.batch_checked > 0
  && r.fleet_violations = []
  && List.for_all (fun p -> p.caught) r.planted

let repro_lines r =
  List.map (fun (f : Fuzz.Campaign.failure) -> f.repro) r.report.Fuzz.Campaign.failures
  @ List.filter_map (fun p -> if p.caught then Some p.repro else None) r.planted

let print r =
  Common.section
    (Printf.sprintf "Fuzz: scenario campaign (seed %d, %s scale)" r.seed r.scale);
  Format.printf "%a@." Fuzz.Campaign.pp_report r.report;
  Printf.printf "fleet properties: %d random configs, %d violation(s)\n" r.fleet_runs
    (List.length r.fleet_violations);
  List.iter
    (fun v -> Format.printf "  %a@." Fuzz.Fleet_props.pp_violation v)
    r.fleet_violations;
  Printf.printf "mutation testing (planted bugs):\n";
  List.iter
    (fun p ->
      if p.caught then
        Printf.printf "  %-26s caught at seed %d, shrunk to %d op(s)\n    repro: %s\n"
          p.bug_name p.found_at_seed p.shrunk_ops p.repro
      else Printf.printf "  %-26s NOT CAUGHT\n" p.bug_name)
    r.planted;
  Printf.printf "verdict: %s\n" (if clean r then "clean" else "VIOLATIONS FOUND")

let to_json r =
  let failure_to_json (f : Fuzz.Campaign.failure) =
    Json.Obj
      [
        ("seed", Json.Int f.scenario.Fuzz.Op.seed);
        ("oracle", Json.Str f.first.Fuzz.Oracle.oracle);
        ("op_index", Json.Int f.first.Fuzz.Oracle.op_index);
        ("detail", Json.Str f.first.Fuzz.Oracle.detail);
        ("shrunk_ops", Json.Int (List.length f.shrunk.Fuzz.Op.ops));
        ("repro", Json.Str f.repro);
      ]
  in
  let planted_to_json p =
    Json.Obj
      [
        ("bug", Json.Str p.bug_name);
        ("caught", Json.Bool p.caught);
        ("found_at_seed", Json.Int p.found_at_seed);
        ("shrunk_ops", Json.Int p.shrunk_ops);
        ("repro", Json.Str p.repro);
      ]
  in
  let rep = r.report in
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("scale", Json.Str r.scale);
      ("runs", Json.Int rep.Fuzz.Campaign.runs);
      ("ops_per_run", Json.Int rep.Fuzz.Campaign.ops_per_run);
      ("total_ops", Json.Int rep.Fuzz.Campaign.total_ops);
      ("total_vms", Json.Int rep.Fuzz.Campaign.total_vms);
      ("total_attests", Json.Int rep.Fuzz.Campaign.total_attests);
      ("failures", Json.List (List.map failure_to_json rep.Fuzz.Campaign.failures));
      ("determinism_mismatches", Json.Int rep.Fuzz.Campaign.determinism_mismatches);
      ("batch_twins_checked", Json.Int rep.Fuzz.Campaign.batch_checked);
      ( "batch_mismatches",
        Json.List
          (List.map
             (fun (seed, detail) ->
               Json.Obj [ ("seed", Json.Int seed); ("detail", Json.Str detail) ])
             rep.Fuzz.Campaign.batch_mismatches) );
      ("fleet_runs", Json.Int r.fleet_runs);
      ( "fleet_violations",
        Json.List
          (List.map
             (fun (v : Fuzz.Fleet_props.violation) ->
               Json.Obj
                 [
                   ("oracle", Json.Str v.oracle);
                   ("seed", Json.Int v.seed);
                   ("detail", Json.Str v.detail);
                 ])
             r.fleet_violations) );
      ("planted", Json.List (List.map planted_to_json r.planted));
      ("clean", Json.Bool (clean r));
    ]
