(* Protocol-space experiment: Dolev-Yao verdicts over a term catalogue,
   then interpreter runs checked against the static cost envelope.

   The symbolic catalogue plants its expectations: unweakened terms must
   verify cleanly, each weakened term must violate exactly the checks its
   dropped strengthening protects (with a concrete attack attached).  The
   executable sweep is the other half of the same contract — the envelope
   {!Copland.Estimate} derives from {!Core.Costs} must actually contain
   what the live Controller run spends.

   The [verify] entry reuses the symbolic section for the paper's section
   7.2.2 table: the protocol as specified and its weakened variants, each
   of which must violate exactly the checks the paper's analysis
   predicts. *)

module P = Copland.Phrase

type symbolic_row = {
  name : string;
  term : P.t;
  weakened : bool;
  expected : string list;
  violated : string list;
  attacks : int;
  checks : Copland.Dy.check list;
  as_expected : bool;
}

type exec_row = {
  e_name : string;
  e_term : P.t;
  servers : int;
  as_clusters : int;
  status : Core.Report.status;
  leaves : int;
  messages : int;
  drops : int;
  compute : Sim.Time.t;
  estimate : Copland.Estimate.t;
  within_estimate : bool;
}

type result = { seed : int; symbolic : symbolic_row list; executable : exec_row list }

(* --- Symbolic section ---------------------------------------------------- *)

(* (name, term, check ids that must be violated).  An empty expectation
   means the term must hold every check with no attacks. *)
let symbolic_catalogue =
  [
    ("default", "a0.0", []);
    ("seq", "(a0.0>a1.1)", []);
    ("par-all", "(a0.0&Aa1.1)", []);
    ("par-quorum", "(a0.0&Qa1.0)", []);
    ("delegated", "d1:a2.0", []);
    ("layered", "l0:a0.1", []);
    ("deleg-layer-quorum", "d1:l2:(a2.0&Qa2.1)", []);
    ("no-nonce", "a-0.0", [ "freshness" ]);
    ( "unchecked-layer",
      "l-0:a0.1",
      [ "secrecy-channel-keys"; "secrecy-payloads"; "integrity"; "auth-as-server" ] );
    ( "unauth-delegation",
      "d-1:a2.0",
      [ "secrecy-payloads"; "integrity"; "auth-controller-as" ] );
    ("replay-into-layer", "(a-0.0>l-1:a1.0)", [ "freshness" ]);
  ]

(* Section 7.2.2: the protocol as specified and the paper's weakened
   variants, each violating exactly the listed checks.  The last two drop
   a signature with the channel keys leaked, so the signature chain is all
   that stands between the attacker and the payloads: every check but
   identity-key secrecy breaks. *)
let section_722 =
  let all_but_identity_keys =
    List.filter (fun id -> id <> "secrecy-identity-keys") Copland.Dy.check_ids
  in
  [
    ("secure protocol (as specified)", "a0.0", []);
    ("no nonces in quoted payloads", "a-0.0", [ "freshness" ]);
    ( "no encryption (SSL layer off)",
      "ae0.0",
      [ "secrecy-payloads"; "auth-customer-controller"; "auth-controller-as"; "auth-as-server" ] );
    ( "channel keys leaked (compromised SSL endpoints)",
      "ak0.0",
      [
        "secrecy-channel-keys";
        "secrecy-payloads";
        "auth-customer-controller";
        "auth-controller-as";
        "auth-as-server";
      ] );
    ("measurements unsigned + channel keys leaked", "akm0.0", all_but_identity_keys);
    ("reports unsigned + channel keys leaked", "akr0.0", all_but_identity_keys);
  ]

(* A clean term holds every check with no attack; a weakened one violates
   the expected checks (exactly those when [exact]) with at least one
   concrete attack. *)
let meets ~exact { expected; violated; attacks; _ } =
  if expected = [] then violated = [] && attacks = 0
  else
    attacks > 0
    &&
    if exact then List.sort compare violated = List.sort compare expected
    else List.for_all (fun id -> List.mem id violated) expected

let symbolic_row ~exact (name, line, expected) =
  let term =
    match P.of_string line with
    | Ok t -> t
    | Error e -> invalid_arg (Printf.sprintf "protocols_exp: bad term %s: %s" line e)
  in
  let report = Copland.Dy.verify term in
  let row =
    {
      name;
      term;
      weakened = P.weakened term;
      expected;
      violated = Copland.Dy.violated report;
      attacks = List.length report.Copland.Dy.attacks;
      checks = report.Copland.Dy.checks;
      as_expected = false;
    }
  in
  { row with as_expected = meets ~exact row }

let verification () = List.map (symbolic_row ~exact:true) section_722

(* Recomputed from the rows, so a doctored row trips it. *)
let verified rows = List.for_all (meets ~exact:true) rows

(* --- Executable section -------------------------------------------------- *)

let launch ctl =
  match
    Core.Controller.launch ctl
      {
        Core.Controller.owner = "protocols-exp";
        image = "cirros";
        flavor = "small";
        properties = Core.Property.all;
        workload = "";
        pins = [];
      }
  with
  | Ok info -> info.Core.Commands.vid
  | Error _ -> invalid_arg "protocols_exp: launch failed"

let ledger_compute ledger =
  Core.Ledger.total ledger
  - Core.Ledger.of_label ledger "network"
  - Core.Ledger.of_label ledger "as:network"

(* The shapes re-expressed against a live topology: delegations name the
   cluster that actually appraises the covered slot, layers stay on the
   covered slot's own host. *)
let exec_shapes env =
  let a slot prop = P.Appraise { slot; prop; nonce = true; guards = P.guarded } in
  let cluster_of = env.Copland.Env.typing.Copland.Typing.cluster_of in
  [
    ("default", P.default);
    ("seq", P.Seq (a 0 0, a 1 1));
    ("par-all", P.Par (P.All, a 0 0, a 1 2));
    ("par-quorum", P.Par (P.Quorum, a 0 0, a 2 0));
    ("layered", P.Layer { slot = 0; checked = true; body = a 0 1 });
    ("delegated", P.Deleg { cluster = cluster_of 0; auth = true; body = a 0 0 });
    ( "deleg-layer-seq",
      P.Deleg
        {
          cluster = cluster_of 0;
          auth = true;
          body = P.Layer { slot = 0; checked = true; body = P.Seq (a 0 0, a 0 3) };
        } );
  ]

let exec_scale ~seed ~servers ~as_clusters =
  let cloud =
    Core.Cloud.build
      ~config:
        {
          Core.Cloud.default_config with
          seed;
          key_bits = 512;
          num_servers = servers;
          num_attestation_servers = as_clusters;
        }
      ()
  in
  let ctl = Core.Cloud.controller cloud in
  let vids = Array.init servers (fun _ -> launch ctl) in
  let net = Core.Cloud.net cloud in
  let env = Copland.Env.of_cloud cloud ~vids in
  let drbg = Crypto.Drbg.create ~seed:(Printf.sprintf "protocols-exp|%d" seed) in
  List.map
    (fun (e_name, e_term) ->
      (* Re-derive per phrase: the verdict cache warms up as the sweep
         proceeds, which Env tracks via [cache_possible]. *)
      let estimate = Copland.Estimate.of_phrase env e_term in
      let msgs0 = Net.Network.message_count net in
      let drops0 = Net.Network.drop_count net in
      let outcome =
        match Copland.Interp.run ~drbg cloud ~vids e_term with
        | Ok o -> o
        | Error e ->
            invalid_arg (Printf.sprintf "protocols_exp: %s rejected: %s" e_name e)
      in
      let messages = Net.Network.message_count net - msgs0 in
      let drops = Net.Network.drop_count net - drops0 in
      let compute = ledger_compute outcome.Copland.Interp.ledger in
      let all_ok =
        List.for_all
          (fun (l : Copland.Interp.leaf_result) -> Result.is_ok l.Copland.Interp.report)
          outcome.Copland.Interp.leaves
      in
      let within_estimate =
        drops = 0 && all_ok
        && messages >= estimate.Copland.Estimate.messages_min
        && messages <= estimate.Copland.Estimate.messages_max
        && compute >= estimate.Copland.Estimate.compute_min
        && compute <= estimate.Copland.Estimate.compute_max
      in
      {
        e_name;
        e_term;
        servers;
        as_clusters;
        status = outcome.Copland.Interp.status;
        leaves = List.length outcome.Copland.Interp.leaves;
        messages;
        drops;
        compute;
        estimate;
        within_estimate;
      })
    (exec_shapes env)

let run ?(seed = 2015) () =
  let symbolic = List.map (symbolic_row ~exact:false) symbolic_catalogue in
  let executable =
    exec_scale ~seed ~servers:3 ~as_clusters:1
    @ exec_scale ~seed ~servers:4 ~as_clusters:2
  in
  { seed; symbolic; executable }

let clean { symbolic; executable; _ } =
  let weakened = List.filter (fun r -> r.weakened) symbolic in
  List.length weakened >= 3
  && List.for_all (fun r -> r.attacks >= 1) weakened
  && List.for_all (fun r -> r.as_expected) symbolic
  && List.for_all (fun r -> r.within_estimate) executable

(* --- Reporting ----------------------------------------------------------- *)

let print ({ seed; symbolic; executable } as r) =
  Common.section (Printf.sprintf "Protocols: phrase catalogue (seed %d)" seed);
  Printf.printf "Symbolic (Dolev-Yao per term):\n";
  Printf.printf "  %-20s %-22s %8s %-30s %s\n" "name" "term" "attacks" "violated" "verdict";
  List.iter
    (fun { name; term; violated; attacks; as_expected; _ } ->
      Printf.printf "  %-20s %-22s %8d %-30s %s\n" name (P.to_string term) attacks
        (if violated = [] then "-" else String.concat "," violated)
        (if as_expected then "as expected" else "UNEXPECTED"))
    symbolic;
  Printf.printf "\nExecutable (interpreter vs static estimate):\n";
  Printf.printf "  %-18s %3s/%-2s %-12s %6s %18s %10s %22s %s\n" "name" "srv" "AS"
    "status" "msgs" "msg envelope" "compute" "compute envelope" "verdict";
  List.iter
    (fun { e_name; servers; as_clusters; status; messages; compute; estimate; within_estimate; _ } ->
      Printf.printf "  %-18s %3d/%-2d %-12s %6d %8s[%3d,%3d] %8.1fms %9s[%6.1f,%6.1f] %s\n"
        e_name servers as_clusters
        (Format.asprintf "%a" Core.Report.pp_status status)
        messages "" estimate.Copland.Estimate.messages_min
        estimate.Copland.Estimate.messages_max (Sim.Time.to_ms compute) ""
        (Sim.Time.to_ms estimate.Copland.Estimate.compute_min)
        (Sim.Time.to_ms estimate.Copland.Estimate.compute_max)
        (if within_estimate then "within" else "OUTSIDE"))
    executable;
  Printf.printf "\n%s\n" (if clean r then "all gates clean" else "GATE VIOLATIONS — see above")

let print_verification rows =
  Common.section "Section 7.2.2: protocol verification (Dolev-Yao symbolic checker)";
  List.iter
    (fun r ->
      Printf.printf "\n--- %s: %s  [%s]\n" r.name (P.to_string r.term)
        (if r.as_expected then "matches expectations" else "UNEXPECTED OUTCOME");
      List.iter
        (fun c -> Printf.printf "  %s\n" (Format.asprintf "%a" Copland.Dy.pp_check c))
        r.checks)
    rows;
  print_endline
    (if verified rows then "\nAll protocol variants behave as expected."
     else "\nUNEXPECTED verification outcome!")

let status_str = function
  | Core.Report.Healthy -> "healthy"
  | Core.Report.Compromised _ -> "compromised"
  | Core.Report.Unknown _ -> "unknown"

let symbolic_to_json { name; term; weakened; expected; violated; attacks; as_expected; _ } =
  Json.Obj
    [
      ("name", Json.Str name);
      ("term", Json.Str (P.to_string term));
      ("weakened", Json.Bool weakened);
      ("expected_violations", Json.List (List.map (fun s -> Json.Str s) expected));
      ("violated", Json.List (List.map (fun s -> Json.Str s) violated));
      ("attacks", Json.Int attacks);
      ("as_expected", Json.Bool as_expected);
    ]

let exec_to_json
    { e_name; e_term; servers; as_clusters; status; leaves; messages; drops; compute;
      estimate; within_estimate } =
  Json.Obj
    [
      ("name", Json.Str e_name);
      ("term", Json.Str (P.to_string e_term));
      ("servers", Json.Int servers);
      ("as_clusters", Json.Int as_clusters);
      ("status", Json.Str (status_str status));
      ("leaves", Json.Int leaves);
      ("messages", Json.Int messages);
      ("drops", Json.Int drops);
      ("compute_ms", Json.Float (Sim.Time.to_ms compute));
      ( "estimate",
        Json.Obj
          [
            ("appraisals", Json.Int estimate.Copland.Estimate.appraisals);
            ("messages_min", Json.Int estimate.Copland.Estimate.messages_min);
            ("messages_max", Json.Int estimate.Copland.Estimate.messages_max);
            ("compute_min_ms", Json.Float (Sim.Time.to_ms estimate.Copland.Estimate.compute_min));
            ("compute_max_ms", Json.Float (Sim.Time.to_ms estimate.Copland.Estimate.compute_max));
          ] );
      ("within_estimate", Json.Bool within_estimate);
    ]

let to_json ({ seed; symbolic; executable } as r) =
  Json.Obj
    [
      ("experiment", Json.Str "protocols");
      ("seed", Json.Int seed);
      ("clean", Json.Bool (clean r));
      ("symbolic", Json.List (List.map symbolic_to_json symbolic));
      ("executable", Json.List (List.map exec_to_json executable));
    ]
