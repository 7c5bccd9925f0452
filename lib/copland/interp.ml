(* Executable semantics: a well-typed phrase runs over the real Controller /
   Attestation Server / Attestation Client machinery.  The default phrase
   "a0.0" performs exactly one [Controller.attest] call with a fresh nonce —
   byte-identical wire traffic to the hardcoded flow (pinned by digest test).

   Weakened forms stay executable: a no-nonce appraisal reuses a fixed
   public constant as its nonce (the protocol still runs; only replay
   protection is gone, which the symbolic engine — not the simulator —
   catches).  An unauthenticated delegation and the appraisal marks
   e/k/m/r (unencrypted hops, leaked channel keys, unsigned measurements or
   reports) execute like their strong forms, because the simulated
   infrastructure always encrypts, keeps its keys and signs: those
   weakenings exist purely for {!Dy} to attack. *)

type leaf_result = {
  slot : int;
  vid : string;
  property : Core.Property.t;
  nonce : string;
  report : (Core.Protocol.controller_report, string) result;
}

type outcome = {
  status : Core.Report.status;
  leaves : leaf_result list;  (** execution order *)
  ledger : Core.Ledger.t;  (** merged compute + network costs *)
}

(* The fixed nonce a weakened (nonce = false) appraisal reuses every round. *)
let reused_nonce = Crypto.Sha256.digest "copland-reused-nonce"

let severity = function
  | Core.Report.Healthy -> 0
  | Core.Report.Unknown _ -> 1
  | Core.Report.Compromised _ -> 2

let worst a b = if severity a >= severity b then a else b
let best a b = if severity a <= severity b then a else b

let leaf_healthy l =
  match l.report with
  | Ok r -> Core.Report.is_healthy r.Core.Protocol.report
  | Error _ -> false

let run ?drbg cloud ~vids phrase =
  let env = Env.of_cloud cloud ~vids in
  match Typing.check env.Env.typing phrase with
  | Error e -> Error (Typing.error_to_string e)
  | Ok () ->
      let drbg =
        match drbg with Some d -> d | None -> Crypto.Drbg.create ~seed:"copland|interp"
      in
      let controller = Core.Cloud.controller cloud in
      let ledger = Core.Ledger.create () in
      let properties = Array.of_list Core.Property.all in
      let rec go ~route = function
        | Phrase.Appraise { slot; prop; nonce } ->
            let vid = vids.(slot) in
            let property = properties.(prop) in
            let nonce = if nonce then Crypto.Drbg.nonce drbg else reused_nonce in
            let req = { Core.Protocol.vid; property; nonce } in
            let result, sub =
              match route with
              | Some cluster -> Core.Controller.attest_routed controller ~cluster req
              | None -> Core.Controller.attest controller req
            in
            Core.Ledger.merge_into ledger sub;
            let leaf = { slot; vid; property; nonce; report = result } in
            let status =
              match result with
              | Ok r -> r.Core.Protocol.report.Core.Report.status
              | Error e -> Core.Report.Compromised ("protocol error: " ^ e)
            in
            (status, [ leaf ])
        | Phrase.Seq (a, b) ->
            let sa, la = go ~route a in
            let sb, lb = go ~route b in
            (worst sa sb, la @ lb)
        | Phrase.Par (m, a, b) ->
            (* The simulator runs branches in order; parallelism shows up in
               the latency estimate, while the merge policy decides the
               verdict. *)
            let sa, la = go ~route a in
            let sb, lb = go ~route b in
            let all = la @ lb in
            let status =
              match m with
              | Phrase.All -> worst sa sb
              | Phrase.Any -> best sa sb
              | Phrase.Quorum ->
                  let healthy = List.length (List.filter leaf_healthy all) in
                  if 2 * healthy > List.length all then Core.Report.Healthy
                  else worst sa sb
            in
            (status, all)
        | Phrase.Deleg { cluster; auth = _; body } -> go ~route:(Some cluster) body
        | Phrase.Layer { slot; checked; body } ->
            if not checked then go ~route body
            else begin
              Core.Ledger.add ledger "layer-appraise" Core.Costs.layer_appraise;
              let host = Option.value ~default:"" (env.Env.host_name slot) in
              match Option.bind (Core.Cloud.find_server cloud host) Hypervisor.Server.trust_backend with
              | None ->
                  (* Nothing dynamic to check on this host (classic module
                     soldered to the board): the layer is vacuously fresh. *)
                  go ~route body
              | Some backend ->
                  if Tpm.Backend.stale backend then
                    (* Restored-but-not-rebound state: refuse to run the
                       body at all — quotes routed through this host would
                       carry a stale binding. *)
                    ( Core.Report.Compromised
                        (Printf.sprintf
                           "layered appraisal: stale trust backend on %s (restored state \
                            not re-registered)"
                           host),
                      [] )
                  else go ~route body
            end
      in
      let status, leaves = go ~route:None phrase in
      Ok { status; leaves; ledger }
