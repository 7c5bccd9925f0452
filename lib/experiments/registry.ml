type outcome = { json : Json.t option; ok : bool }
type entry = { name : string; doc : string; run : seed:int -> outcome }

(* Print the table, emit the JSON, evaluate the gate — one result value
   feeds all three. *)
let report ~print ?to_json ?(gate = fun _ -> true) result =
  print result;
  { json = Option.map (fun f -> f result) to_json; ok = gate result }

let entry name doc run =
  let run ~seed =
    let outcome = run ~seed in
    if not outcome.ok then Printf.eprintf "%s: gate violated\n%!" name;
    outcome
  in
  { name; doc; run }

(* A failing campaign leaves its shrunk one-line repros next to the
   artifacts, for offline replay. *)
let fuzz ~seed =
  let r = Fuzz_exp.run ~seed () in
  let outcome = report ~print:Fuzz_exp.print ~to_json:Fuzz_exp.to_json ~gate:Fuzz_exp.clean r in
  if not outcome.ok then begin
    let oc = open_out "fuzz-repros.txt" in
    List.iter (fun line -> output_string oc (line ^ "\n")) (Fuzz_exp.repro_lines r);
    close_out oc;
    prerr_endline "fuzz: repros written to fuzz-repros.txt"
  end;
  outcome

let ablations ~seed =
  Ablations.print_detector (Ablations.detector_sweep ~seed ());
  Ablations.print_benign (Ablations.benign_false_positives ());
  Ablations.print_ticks (Ablations.tick_sweep ());
  Ablations.print_latency (Ablations.detection_latency ~seed ());
  { json = None; ok = true }

let entries =
  [
    entry "fig4" "cross-VM covert information leakage (paper Fig. 4)" (fun ~seed ->
        report ~print:Fig4.print (Fig4.run ~seed ()));
    entry "fig5" "covert-channel vulnerability measurements (Fig. 5)" (fun ~seed ->
        report ~print:Fig5.print (Fig5.run ~seed ()));
    entry "fig6" "performance impact of CPU-availability attacks (Fig. 6)" (fun ~seed:_ ->
        report ~print:Fig6.print (Fig6.run ()));
    entry "fig7" "CPU-availability vulnerability measurements (Fig. 7)" (fun ~seed:_ ->
        report ~print:Fig7.print (Fig7.run ()));
    entry "fig9" "VM launching performance (Fig. 9)" (fun ~seed ->
        report ~print:Fig9.print ~to_json:(Fig9.to_json ~seed) (Fig9.run ~seed ()));
    entry "fig10" "performance effect of runtime attestation (Fig. 10)" (fun ~seed ->
        report ~print:Fig10.print (Fig10.run ~seed ()));
    entry "fig11" "attestation and response reaction times (Fig. 11)" (fun ~seed ->
        report ~print:Fig11.print (Fig11.run ~seed ()));
    entry "verify" "symbolic verification of the fixed protocol (section 7.2.2)"
      (fun ~seed:_ ->
        report ~print:Protocols_exp.print_verification ~gate:Protocols_exp.verified
          (Protocols_exp.verification ()));
    entry "cache" "prime-probe cache covert channel and its detection" (fun ~seed ->
        report ~print:Cache_exp.print (Cache_exp.run ~seed ()));
    entry "faults" "attestation availability on a lossy network" (fun ~seed ->
        report ~print:Faults.print ~to_json:Faults.to_json ~gate:Faults.clean
          (Faults.run ~seed ()));
    entry "fleet" "fleet-scale throughput sweep, sharded by AS cluster" (fun ~seed ->
        report ~print:Fleet_exp.print ~to_json:Fleet_exp.to_json ~gate:Fleet_exp.clean
          (Fleet_exp.run ~seed ()));
    entry "monitor" "continuous re-attestation: storms, freshness SLOs, time-to-detect"
      (fun ~seed ->
        report ~print:Monitor_exp.print ~to_json:Monitor_exp.to_json ~gate:Monitor_exp.clean
          (Monitor_exp.run ~seed ()));
    entry "batch" "Merkle-batched attestation frontier" (fun ~seed ->
        report ~print:Batch_exp.print ~to_json:Batch_exp.to_json (Batch_exp.run ~seed ()));
    entry "audit" "verdict-transparency log overhead and fork detection" (fun ~seed ->
        report ~print:Audit_exp.print ~to_json:Audit_exp.to_json ~gate:Audit_exp.clean
          (Audit_exp.run ~seed ()));
    entry "crypto" "RSA, event-heap and Trust Module micro-benchmarks (host CPU time)"
      (fun ~seed ->
        report ~print:Crypto_bench.print ~to_json:(Crypto_bench.to_json ~seed)
          ~gate:Crypto_bench.clean (Crypto_bench.run ~seed ()));
    entry "fuzz" "oracle-checked fuzz campaign over generated histories" fuzz;
    entry "backends" "trust-backend comparison and lifecycle gates" (fun ~seed ->
        report ~print:Backends_exp.print ~to_json:Backends_exp.to_json
          ~gate:Backends_exp.clean (Backends_exp.run ~seed ()));
    entry "protocols" "attestation-protocol catalogue: Dolev-Yao + cost envelopes"
      (fun ~seed ->
        report ~print:Protocols_exp.print ~to_json:Protocols_exp.to_json
          ~gate:Protocols_exp.clean (Protocols_exp.run ~seed ()));
    entry "ablations" "design-choice ablation studies" ablations;
  ]

let select requested =
  let known name = name = "all" || List.exists (fun e -> e.name = name) entries in
  match List.filter (fun name -> not (known name)) requested with
  | [] ->
      Ok
        (List.filter
           (fun e -> List.mem "all" requested || List.mem e.name requested)
           entries)
  | unknown -> Error unknown
