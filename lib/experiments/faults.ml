(* Fault-injection experiment: attestation success rate and added latency
   under an adversarial (lossy) network.

   Each row builds a fresh cloud, launches one monitored VM over a clean
   network, then turns on a fault adversary and runs [rounds] one-time
   attestations (controller -> AS -> cloud server).  The retry/resync layer
   (Network.call_with_retry, secure-channel record caching and resets, the
   bounded re-attestation in lib/core) is what keeps the success rate up;
   at 100% loss every round must still terminate, with a degraded
   [Unknown] verdict. *)

open Core

type row = {
  label : string;
  rounds : int;
  healthy : int;  (* verdict Healthy *)
  unknown : int;  (* degraded verdict: path unavailable *)
  errors : int;  (* hard errors (should be 0 for pure loss) *)
  mean_ms : float;  (* mean simulated attestation latency *)
  added_ms : float;  (* latency added vs. the clean baseline *)
  drops : int;  (* messages the adversary dropped *)
  retries : int;  (* transport-level re-sends *)
}

type result = row list

let rounds_default = 20

let scenarios ~seed =
  [
    ("clean", fun (_ : Net.Network.t) -> ());
    ("p=0.10", fun net -> Net.Network.set_adversary net (Net.Fault.lossy ~drop_p:0.1 ~seed ()));
    ("p=0.20", fun net -> Net.Network.set_adversary net (Net.Fault.lossy ~drop_p:0.2 ~seed ()));
    ("p=0.30", fun net -> Net.Network.set_adversary net (Net.Fault.lossy ~drop_p:0.3 ~seed ()));
    ("p=0.50", fun net -> Net.Network.set_adversary net (Net.Fault.lossy ~drop_p:0.5 ~seed ()));
    ("every-3rd", fun net -> Net.Network.set_adversary net (Net.Fault.drop_nth 3));
    ("blackout", fun net -> Net.Network.set_adversary net (Net.Fault.blackout ()));
  ]

let run_one ~seed ~rounds install =
  let cloud = Cloud.build ~config:(Common.fast_config ~seed) () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid =
    match
      Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
        ~properties:[ Property.Startup_integrity ] ()
    with
    | Ok info -> info.Commands.vid
    | Error e ->
        failwith (Format.asprintf "faults: launch failed: %a" Cloud.Customer.pp_error e)
  in
  let controller = Cloud.controller cloud in
  let net = Cloud.net cloud in
  install net;
  let drbg = Crypto.Drbg.create ~seed:("faults|" ^ string_of_int seed) in
  let healthy = ref 0 and unknown = ref 0 and errors = ref 0 in
  let total = ref 0 in
  for _ = 1 to rounds do
    let nonce = Crypto.Drbg.nonce drbg in
    let result, ledger =
      Controller.attest controller
        { Protocol.vid; property = Property.Startup_integrity; nonce }
    in
    total := !total + Ledger.total ledger;
    match result with
    | Ok creport -> (
        match creport.Protocol.report.Report.status with
        | Report.Healthy -> incr healthy
        | Report.Unknown _ -> incr unknown
        | Report.Compromised _ -> incr errors)
    | Error _ -> incr errors
  done;
  Net.Network.clear_adversary net;
  ( !healthy,
    !unknown,
    !errors,
    Sim.Time.to_ms !total /. float_of_int rounds,
    Net.Network.drop_count net,
    Net.Network.retry_count net )

let run ?(seed = 2015) ?(rounds = rounds_default) () =
  let rows =
    List.map
      (fun (label, install) ->
        let healthy, unknown, errors, mean_ms, drops, retries =
          run_one ~seed ~rounds install
        in
        { label; rounds; healthy; unknown; errors; mean_ms; added_ms = 0.0; drops; retries })
      (scenarios ~seed)
  in
  let baseline =
    match rows with [] -> 0.0 | clean :: _ -> clean.mean_ms
  in
  List.map (fun r -> { r with added_ms = r.mean_ms -. baseline }) rows

(* Pure loss may cost latency and degrade verdicts, never answer wrongly:
   every round ends Healthy or Unknown, the clean network is all Healthy
   and a blackout all Unknown. *)
let clean rows =
  let row_is label ok = List.exists (fun r -> r.label = label && ok r) rows in
  List.for_all (fun r -> r.errors = 0 && r.healthy + r.unknown = r.rounds) rows
  && row_is "clean" (fun r -> r.healthy = r.rounds)
  && row_is "blackout" (fun r -> r.unknown = r.rounds)

let print rows =
  Common.section "Faults: attestation under a lossy network (drop rate sweep)";
  Printf.printf "%-10s %7s %8s %8s %7s %9s %10s %7s %8s\n" "adversary" "rounds" "healthy"
    "unknown" "errors" "mean(ms)" "added(ms)" "drops" "retries";
  List.iter
    (fun r ->
      Printf.printf "%-10s %7d %8d %8d %7d %9.1f %10.1f %7d %8d\n" r.label r.rounds r.healthy
        r.unknown r.errors r.mean_ms r.added_ms r.drops r.retries)
    rows;
  print_newline ();
  List.iter
    (fun r ->
      let pct = 100.0 *. float_of_int r.healthy /. float_of_int r.rounds in
      Printf.printf "  %-10s success %5.1f%% %s\n" r.label pct (Common.bar (pct /. 10.0)))
    rows;
  Printf.printf "\n%s\n"
    (if clean rows then "faults gates hold: no errors, clean all Healthy, blackout all Unknown"
     else "FAULTS GATE VIOLATION")

let to_json rows =
  Json.Obj
    [
      ("experiment", Json.Str "faults");
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("adversary", Json.Str r.label);
                   ("rounds", Json.Int r.rounds);
                   ("healthy", Json.Int r.healthy);
                   ("unknown", Json.Int r.unknown);
                   ("errors", Json.Int r.errors);
                   ("mean_ms", Json.Float r.mean_ms);
                   ("added_ms", Json.Float r.added_ms);
                   ("drops", Json.Int r.drops);
                   ("retries", Json.Int r.retries);
                 ])
             rows) );
      ("clean", Json.Bool (clean rows));
    ]
