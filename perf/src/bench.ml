(* One benchmark run of one workload: its metrics, its gates, its result
   line. *)

(* Every end-to-end metric, with its unit.  Each workload reports all of
   them; what its op and its unit of work are is the workload's own (see
   perf/README.md).  The 90th percentile is printed for information only:
   on a shared host its run-to-run spread exceeds any usable bound. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms"); ("heap_mb", "MiB") ]

type outcome = {
  workload : string;
  lat_ms : float list;
  correct : bool;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  fingerprint : string;  (** digest of the simulated outputs; same op count, same digest *)
}

let end_to_end_values (r : Workloads.result) =
  [
    ("setup_s", Stats.median r.Workloads.setup_s);
    ("throughput_per_s", float_of_int r.Workloads.delivered /. r.Workloads.loop_s);
    ("latency_p50_ms", Stats.median r.Workloads.lat_ms);
    ("heap_mb", r.Workloads.heap_mb);
  ]

(* Untraced runs report the end-to-end metrics; traced runs the per-layer
   rows (the layer sweep adds its own gates) and set up only once, since
   they report no set-up time. *)
let run ?(spans : out_channel option) (w : Workloads.workload) p ~seed ~seconds ~trace =
  let p = if trace then { p with Workloads.setups = 1; setup_seconds = 0. } else p in
  let r = w.Workloads.run ~trace p ~seed ~seconds in
  let values, units, extra_checks =
    if trace then
      let rows, checks = Layers.rows p ~seed ~own:r.Workloads.layers in
      (rows, Layers.metrics, checks)
    else (end_to_end_values r, end_to_end, [])
  in
  (match (spans, r.Workloads.tracer) with
  | Some oc, Some tr -> Tracer.write_jsonl tr ~workload:w.Workloads.name oc
  | _ -> ());
  let checks = r.Workloads.checks @ extra_checks in
  {
    workload = w.Workloads.name;
    lat_ms = r.Workloads.lat_ms;
    correct = r.Workloads.failed = 0 && List.for_all snd checks;
    attempted = r.Workloads.attempted;
    failed = r.Workloads.failed;
    checks;
    metrics = List.map (fun (name, v) -> (name, v, List.assoc name units)) values;
    fingerprint = r.Workloads.fingerprint;
  }

let exit_code o = if o.correct then 0 else 1

let to_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             o.metrics) );
    ]

(* The human-readable lines: one per metric and one per gate. *)
let print_lines o =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %s %s\n" o.workload name (Json.number v) unit)
    o.metrics;
  List.iter
    (fun (check, ok) ->
      Printf.printf "# %s gate %s: %s\n" o.workload (if ok then "ok" else "FAILED") check)
    o.checks;
  Printf.printf "# %s latency_p90_ms %s (%d samples)\n" o.workload
    (Json.number (Stats.quantile o.lat_ms 0.9))
    (List.length o.lat_ms);
  Printf.printf "# %s attempted %d failed %d\n" o.workload o.attempted o.failed
