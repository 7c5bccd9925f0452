type row = {
  budget : Sim.Time.t;  (* freshness budget: the re-attestation period *)
  storm : string;  (* "none" | "rack-compromise" | "image-cve" | "migration-wave" *)
  domains : int;
  host_wall_s : float;
  r : Fleet.Driver.result;
}

type sharded = { curve : row list; identical : bool }

type result = { seed : int; scale : string; rows : row list; sharded : sharded }

(* The monitored fleet: ~10^4 VMs whose every verdict must stay inside the
   freshness budget, so the scheduler itself offers vms/budget probes per
   second — the probe stream, not the open-loop arrivals, is the load.
   [`Default] sizes the AS capacity to just cover the tightest budget's
   probe rate (10^4 VMs / 5 s = 2000 probes/s against 16x16 slots);
   [`Smoke] shrinks it to CI size but keeps as_count > domains > 1 and a
   probe rate near saturation, so shedding and retry paths stay live. *)
let scenario ~seed = function
  | `Default ->
      ( {
          Fleet.Driver.default_config with
          seed;
          servers = 500;
          vms = 10_000;
          as_count = 16;
          as_capacity = 16;
          queue_depth = 64;
          ttl = Sim.Time.sec 30;
          rate_per_s = 100.0;
          duration = Sim.Time.sec 20;
          drain = Sim.Time.sec 20;
          churn_period = Sim.Time.sec 1;
          hot_vms = 1024;
          epoch = Sim.Time.ms 250;
        },
        Sim.Time.ms 500,
        [ Sim.Time.sec 5; Sim.Time.sec 10 ],
        Sim.Time.sec 5,
        [ 1; 2; 4; 8 ] )
  | `Smoke ->
      ( {
          Fleet.Driver.default_config with
          seed;
          servers = 32;
          vms = 80;
          as_count = 4;
          as_capacity = 2;
          queue_depth = 8;
          ttl = Sim.Time.sec 10;
          rate_per_s = 20.0;
          duration = Sim.Time.sec 6;
          drain = Sim.Time.sec 6;
          churn_period = Sim.Time.ms 500;
          hot_vms = 16;
          epoch = Sim.Time.ms 50;
        },
        Sim.Time.ms 250,
        [ Sim.Time.sec 2; Sim.Time.sec 4 ],
        Sim.Time.sec 2,
        [ 1; 2 ] )

(* Lead scales with the budget (a fixed lead would turn a tight budget
   into near-continuous probing) but always covers two ticks, the floor
   {!Fleet.Monitor} documents for probes to complete in time. *)
let monitor_of ~tick ~budget ~storms =
  {
    Fleet.Monitor.default_config with
    tick;
    budget;
    recheck_budget = budget / 2;
    lead = max (2 * tick) (budget / 4);
    storms;
  }

let storm_menu ~at ~vms =
  [
    ("none", []);
    ("rack-compromise", [ Fleet.Monitor.Rack_compromise { at; cluster = 0 } ]);
    ( "image-cve",
      [ Fleet.Monitor.Image_cve { at; property = Core.Property.Runtime_integrity } ] );
    ( "migration-wave",
      [ Fleet.Monitor.Migration_wave { at; count = max 1 (vms / 10) } ] );
  ]

let time_to_detect (r : Fleet.Driver.result) =
  List.find_map
    (fun (s : Fleet.Driver.storm_outcome) ->
      if String.equal s.Fleet.Driver.storm "rack-compromise" then
        Some (Option.map (fun d -> d - s.Fleet.Driver.at) s.Fleet.Driver.detected_at)
      else None)
    r.Fleet.Driver.mon_storms

(* The SLO the CI gate watches: a planted rack compromise must surface
   within two re-attestation periods.  One period is the worst-case gap
   before the next scheduled probe of a just-refreshed victim; the second
   absorbs queueing, shed-retry and cross-shard epoch delivery. *)
let detect_bound row = 2 * row.budget

let row_detects row =
  match time_to_detect row.r with
  | None -> true (* no rack storm planted: nothing to detect *)
  | Some None -> false
  | Some (Some d) -> d <= detect_bound row

let run ?(seed = 2015) ?(scale = Common.scale_of_env ()) () =
  let base, tick, budgets, storm_at, domain_counts = scenario ~seed scale in
  let scale_name = match scale with `Default -> "default" | `Smoke -> "smoke" in
  let row ~budget ~storm ~storms ~domains =
    let config =
      {
        base with
        Fleet.Driver.monitor = Some (monitor_of ~tick ~budget ~storms);
        domains;
      }
    in
    let r, host_wall_s = Common.timed config in
    { budget; storm; domains; host_wall_s; r }
  in
  let rows =
    List.concat_map
      (fun budget ->
        List.map
          (fun (storm, storms) -> row ~budget ~storm ~storms ~domains:1)
          (storm_menu ~at:storm_at ~vms:base.Fleet.Driver.vms))
      budgets
  in
  (* The domain curve runs the headline scenario — tightest budget, rack
     compromise — once per domain count; identity is judged on
     {!Fleet.Driver.fingerprint}, exactly as the fleet experiment does. *)
  let sharded =
    let budget = List.hd budgets in
    let storm, storms =
      List.nth (storm_menu ~at:storm_at ~vms:base.Fleet.Driver.vms) 1
    in
    let curve =
      List.map (fun domains -> row ~budget ~storm ~storms ~domains) domain_counts
    in
    { curve; identical = Common.same_fingerprint (List.map (fun row -> row.r) curve) }
  in
  { seed; scale = scale_name; rows; sharded }

(* Every scheduled probe ends in exactly one bucket, and no VM is tracked
   twice after crossing shards. *)
let ledger_conserved (r : Fleet.Driver.result) =
  r.Fleet.Driver.mon_scheduled
  = r.Fleet.Driver.mon_served + r.Fleet.Driver.mon_missed_periodic
    + r.Fleet.Driver.mon_missed_recheck + r.Fleet.Driver.mon_shed
  && r.Fleet.Driver.mon_entry_dups = 0

let clean { rows; sharded; _ } =
  sharded.identical
  && List.length sharded.curve >= 2
  && List.exists (fun row -> String.equal row.storm "rack-compromise") rows
  && List.for_all (fun row -> row_detects row && ledger_conserved row.r) (rows @ sharded.curve)
  && List.exists (fun row -> row.r.Fleet.Driver.mon_fresh_final > 0.0) rows

let print ({ seed; scale; rows; sharded } as result) =
  Common.section
    (Printf.sprintf "Monitor: continuous re-attestation (seed %d, %s sweep)" seed scale);
  (match rows with
  | [] -> ()
  | base :: _ ->
      Printf.printf "%d VMs, %d AS shards, %.0f req/s background arrivals\n\n"
        base.r.Fleet.Driver.config.Fleet.Driver.vms
        base.r.Fleet.Driver.config.Fleet.Driver.as_count
        base.r.Fleet.Driver.config.Fleet.Driver.rate_per_s);
  Printf.printf "%7s %-15s %3s | %7s %7s %6s %6s %6s | %5s %5s %5s | %8s\n" "budget"
    "storm" "dom" "sched" "srv" "miss" "shed" "dedup" "f.min" "f.avg" "f.end" "detect";
  let print_row row =
    let r = row.r in
    let detect =
      match time_to_detect r with
      | None -> "-"
      | Some None -> "MISSED"
      | Some (Some d) -> Printf.sprintf "%.0fms" (Sim.Time.to_ms d)
    in
    Printf.printf "%6.0fs %-15s %3d | %7d %7d %6d %6d %6d | %5.2f %5.2f %5.2f | %8s\n"
      (Sim.Time.to_sec row.budget) row.storm row.domains r.Fleet.Driver.mon_scheduled
      r.Fleet.Driver.mon_served
      (r.Fleet.Driver.mon_missed_periodic + r.Fleet.Driver.mon_missed_recheck)
      r.Fleet.Driver.mon_shed r.Fleet.Driver.mon_dedups r.Fleet.Driver.mon_fresh_min
      r.Fleet.Driver.mon_fresh_mean r.Fleet.Driver.mon_fresh_final detect
  in
  List.iter print_row rows;
  (match sharded.curve with
  | [] -> ()
  | base :: _ ->
      Printf.printf
        "\nDomain curve (budget %.0fs, %s), fingerprints must coincide:\n"
        (Sim.Time.to_sec base.budget) base.storm;
      List.iter
        (fun row ->
          Printf.printf "  domains=%d  host %6.2fs wall\n" row.domains row.host_wall_s)
        sharded.curve;
      Printf.printf "  results byte-identical across domain counts: %b\n"
        sharded.identical);
  Printf.printf "verdict: %s\n" (if clean result then "clean" else "SLO VIOLATED")

let storm_to_json (s : Fleet.Driver.storm_outcome) =
  Json.Obj
    ([
       ("storm", Json.Str s.Fleet.Driver.storm);
       ("at_ms", Json.Float (Sim.Time.to_ms s.Fleet.Driver.at));
       ("affected", Json.Int s.Fleet.Driver.affected);
     ]
    @
    match s.Fleet.Driver.detected_at with
    | None -> []
    | Some d ->
        [
          ("detected_at_ms", Json.Float (Sim.Time.to_ms d));
          ("time_to_detect_ms", Json.Float (Sim.Time.to_ms (d - s.Fleet.Driver.at)));
        ])

(* [host = false] drops the wall-clock field — the only nondeterministic
   byte in a row — so determinism tests can compare full JSON documents. *)
let row_to_json ?(host = true) row =
  let r = row.r in
  Json.Obj
    ([
       ("budget_ms", Json.Float (Sim.Time.to_ms row.budget));
       ("storm", Json.Str row.storm);
       ("domains", Json.Int row.domains);
       ("vms_total", Json.Int r.Fleet.Driver.config.Fleet.Driver.vms);
     ]
    @ (if host then [ ("host_wall_s", Json.Float row.host_wall_s) ] else [])
    @ [
        ("offered", Json.Int r.Fleet.Driver.offered);
        ("served", Json.Int r.Fleet.Driver.served);
        ( "mon",
          Json.Obj
            [
              ("scheduled", Json.Int r.Fleet.Driver.mon_scheduled);
              ("served", Json.Int r.Fleet.Driver.mon_served);
              ("missed_periodic", Json.Int r.Fleet.Driver.mon_missed_periodic);
              ("missed_recheck", Json.Int r.Fleet.Driver.mon_missed_recheck);
              ("shed", Json.Int r.Fleet.Driver.mon_shed);
              ("dedups", Json.Int r.Fleet.Driver.mon_dedups);
              ("ticks", Json.Int r.Fleet.Driver.mon_ticks);
              ("entries", Json.Int r.Fleet.Driver.mon_entries);
              ("entry_dups", Json.Int r.Fleet.Driver.mon_entry_dups);
            ] );
        ( "fresh",
          Json.Obj
            [
              ("min", Json.Float r.Fleet.Driver.mon_fresh_min);
              ("mean", Json.Float r.Fleet.Driver.mon_fresh_mean);
              ("final", Json.Float r.Fleet.Driver.mon_fresh_final);
            ] );
        ("detect_bound_ms", Json.Float (Sim.Time.to_ms (detect_bound row)));
        ("detects_in_bound", Json.Bool (row_detects row));
        ("storms", Json.List (List.map storm_to_json r.Fleet.Driver.mon_storms));
        ("p95_ms", Json.Float r.Fleet.Driver.p95_ms);
        ("max_queue_depth", Json.Int r.Fleet.Driver.max_queue_depth);
        ("trace_digest", Json.Str r.Fleet.Driver.trace_digest);
      ])

let to_json ?host ({ seed; scale; rows; sharded } as result) =
  Json.Obj
    [
      ("experiment", Json.Str "monitor");
      ("seed", Json.Int seed);
      ("scale", Json.Str scale);
      ("rows", Json.List (List.map (row_to_json ?host) rows));
      ( "sharded",
        Json.Obj
          ([ ("identical_across_domains", Json.Bool sharded.identical) ]
          @
          match sharded.curve with
          | [] -> []
          | base :: _ ->
              [
                ("budget_ms", Json.Float (Sim.Time.to_ms base.budget));
                ("storm", Json.Str base.storm);
                ("fingerprint", Json.Str (Fleet.Driver.fingerprint base.r));
                ( "domains",
                  Json.List (List.map (fun row -> Json.Int row.domains) sharded.curve)
                );
              ]
              @
              if match host with Some false -> false | _ -> true then
                [
                  ( "host_wall_s",
                    Json.List
                      (List.map (fun row -> Json.Float row.host_wall_s) sharded.curve)
                  );
                ]
              else []) );
      ("clean", Json.Bool (clean result));
    ]
