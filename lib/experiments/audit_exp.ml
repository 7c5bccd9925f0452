(* Transparency-log frontier: what verdict auditing costs and how fast it
   catches a cheating log operator.

   Part 1 sweeps checkpoint interval x offered rate x AS shard count and
   reports the audited run next to its audit-off baseline (same seed, same
   load, one baseline per (rate, shards) pair) — the overhead numbers the
   acceptance criterion watches.

   Part 2 is the adversarial side: a split-view fork ({!Audit.View.fork})
   is planted mid-interval and two gossiping auditors race to convict it;
   detection latency must stay within one checkpoint interval. *)

type row = {
  interval : Sim.Time.t;
  rate : float;
  as_count : int;
  base : Fleet.Driver.result;  (* audit off, otherwise identical config *)
  audited : Fleet.Driver.result;
}

type detection = {
  det_interval : Sim.Time.t;
  forked_at : Sim.Time.t;
  detected_at : Sim.Time.t option;
  evidence_kind : string;
}

type result = { seed : int; scale : string; rows : row list; detections : detection list }

type sweep = {
  intervals : Sim.Time.t list;
  rates : float list;
  as_counts : int list;
  base : Fleet.Driver.config;
}

let default_sweep ~seed =
  {
    intervals = [ Sim.Time.ms 250; Sim.Time.sec 1; Sim.Time.sec 5 ];
    rates = [ 8.0; 16.0 ];
    as_counts = [ 1; 2 ];
    base = { Fleet.Driver.default_config with seed };
  }

let smoke_sweep ~seed =
  {
    intervals = [ Sim.Time.ms 500; Sim.Time.sec 1 ];
    rates = [ 12.0 ];
    as_counts = [ 1 ];
    base =
      {
        Fleet.Driver.default_config with
        seed;
        servers = 40;
        vms = 200;
        duration = Sim.Time.sec 10;
        drain = Sim.Time.sec 10;
        hot_vms = 32;
      };
  }

(* --- Part 2: split-view detection latency ------------------------------- *)

(* One log identity forks into two faces at [fork_at] (deliberately off the
   checkpoint grid); each face is watched by its own auditor and the two
   exchange heads right after every checkpoint.  Returns when (simulated)
   the first evidence lands. *)
let detection_run ~seed ~interval =
  let engine = Sim.Engine.create () in
  let clock () = Sim.Engine.now engine in
  let key =
    (Crypto.Rsa.generate
       (Crypto.Drbg.create ~seed:("audit-exp|" ^ string_of_int seed))
       ~bits:512)
      .Crypto.Rsa.secret
  in
  let fork = Audit.View.fork ~log_id:"as-1" ~key ~clock () in
  let pub = Audit.Log.public_key fork.Audit.View.log_a in
  let mk name = Audit.Auditor.create ~name ~key_of:(fun _ -> Some pub) ~clock () in
  let a = mk "det-auditor-a" and b = mk "det-auditor-b" in
  let forked_at = (3 * interval) + (interval / 2) in
  let horizon = forked_at + (4 * interval) in
  let seq = ref 0 in
  let feed () =
    incr seq;
    let entry tag = Printf.sprintf "vm-%04d|vm_integrity|%s" !seq tag in
    if Sim.Engine.now engine < forked_at then fork.Audit.View.append_both (entry "healthy")
    else begin
      (* Equivocate: same index, different verdicts on the two faces. *)
      fork.Audit.View.append_a (entry "healthy");
      fork.Audit.View.append_b (entry "compromised:hidden")
    end
  in
  ignore
    (Sim.Engine.every engine ~period:(max 1 (interval / 4)) ~until:horizon feed
      : Sim.Engine.handle);
  let detected = ref None in
  let tick () =
    ignore (Audit.Log.checkpoint fork.Audit.View.log_a : Audit.Sth.t);
    ignore (Audit.Log.checkpoint fork.Audit.View.log_b : Audit.Sth.t);
    Audit.Auditor.observe a fork.Audit.View.face_a;
    Audit.Auditor.observe b fork.Audit.View.face_b;
    Audit.Auditor.exchange a b;
    if !detected = None then
      match (Audit.Auditor.evidence a, Audit.Auditor.evidence b) with
      | [], [] -> ()
      | ev :: _, _ | [], ev :: _ ->
          detected :=
            Some
              ( Sim.Engine.now engine,
                Format.asprintf "%a" Audit.Auditor.pp_kind ev.Audit.Auditor.kind )
  in
  ignore (Sim.Engine.every engine ~period:interval ~until:horizon tick : Sim.Engine.handle);
  Sim.Engine.run_until engine horizon;
  {
    det_interval = interval;
    forked_at;
    detected_at = Option.map fst !detected;
    evidence_kind = (match !detected with Some (_, k) -> k | None -> "none");
  }

let run ?(seed = 2015) ?(scale = Common.scale_of_env ()) () =
  let sweep, scale_name =
    match scale with
    | `Default -> (default_sweep ~seed, "default")
    | `Smoke -> (smoke_sweep ~seed, "smoke")
  in
  let baselines =
    List.concat_map
      (fun rate ->
        List.map
          (fun as_count ->
            let config = { sweep.base with Fleet.Driver.rate_per_s = rate; as_count } in
            ((rate, as_count), Fleet.Driver.run config))
          sweep.as_counts)
      sweep.rates
  in
  let rows =
    List.concat_map
      (fun interval ->
        List.concat_map
          (fun rate ->
            List.map
              (fun as_count ->
                let config =
                  {
                    sweep.base with
                    Fleet.Driver.rate_per_s = rate;
                    as_count;
                    audit_checkpoint = interval;
                  }
                in
                {
                  interval;
                  rate;
                  as_count;
                  base = List.assoc (rate, as_count) baselines;
                  audited = Fleet.Driver.run config;
                })
              sweep.as_counts)
          sweep.rates)
      sweep.intervals
  in
  let detections =
    List.map (fun interval -> detection_run ~seed ~interval) sweep.intervals
  in
  { seed; scale = scale_name; rows; detections }

let within_interval { det_interval; forked_at; detected_at; _ } =
  match detected_at with Some t -> t - forked_at <= det_interval | None -> false

let clean { detections; _ } = detections <> [] && List.for_all within_interval detections

let print { seed; scale; rows; detections } =
  Common.section
    (Printf.sprintf "Audit: verdict transparency log (seed %d, %s sweep)" seed scale);
  Printf.printf
    "cost model: +%.1f ms/verdict at log size 1k, +%.1f ms at 64k (receipt path)\n\n"
    (Fleet.Driver.audit_verdict_ms ~size:1024)
    (Fleet.Driver.audit_verdict_ms ~size:65536);
  Printf.printf "%7s %5s %3s | %9s %9s | %8s %8s | %7s %6s %5s %5s\n" "ckpt" "rate" "AS"
    "srv/s" "base" "p95ms" "base" "appends" "ckpts" "prf" "equiv";
  List.iter
    (fun { interval; rate; as_count; base; audited } ->
      Printf.printf
        "%6.2fs %5.1f %3d | %9.2f %9.2f | %8.0f %8.0f | %7d %6d %5d %5d\n"
        (Sim.Time.to_sec interval) rate as_count audited.Fleet.Driver.served_rps
        base.Fleet.Driver.served_rps audited.Fleet.Driver.p95_ms base.Fleet.Driver.p95_ms
        audited.Fleet.Driver.audit_appends audited.Fleet.Driver.audit_checkpoints
        audited.Fleet.Driver.audit_proofs audited.Fleet.Driver.audit_equivocations)
    rows;
  Printf.printf "\nSplit-view detection (fork planted mid-interval):\n";
  List.iter
    (fun { det_interval; forked_at; detected_at; evidence_kind } ->
      match detected_at with
      | Some at ->
          let latency = at - forked_at in
          Printf.printf "  ckpt %5.2fs: forked %7.2fs, convicted %7.2fs (+%.2fs, %s) %s\n"
            (Sim.Time.to_sec det_interval)
            (Sim.Time.to_sec forked_at) (Sim.Time.to_sec at) (Sim.Time.to_sec latency)
            evidence_kind
            (if latency <= det_interval then "within one interval" else "LATE")
      | None ->
          Printf.printf "  ckpt %5.2fs: forked %7.2fs, NOT DETECTED\n"
            (Sim.Time.to_sec det_interval)
            (Sim.Time.to_sec forked_at))
    detections

let row_to_json { interval; rate; as_count; base; audited } =
  let side (r : Fleet.Driver.result) =
    Json.Obj
      [
        ("served", Json.Int r.Fleet.Driver.served);
        ("served_rps", Json.Float r.Fleet.Driver.served_rps);
        ("mean_ms", Json.Float r.Fleet.Driver.mean_ms);
        ("p50_ms", Json.Float r.Fleet.Driver.p50_ms);
        ("p95_ms", Json.Float r.Fleet.Driver.p95_ms);
        ("p99_ms", Json.Float r.Fleet.Driver.p99_ms);
      ]
  in
  Json.Obj
    [
      ("checkpoint_ms", Json.Float (Sim.Time.to_ms interval));
      ("rate_per_s", Json.Float rate);
      ("as_count", Json.Int as_count);
      ("baseline", side base);
      ("audited", side audited);
      ( "overhead",
        Json.Obj
          [
            ( "p50_ms",
              Json.Float (audited.Fleet.Driver.p50_ms -. base.Fleet.Driver.p50_ms) );
            ( "p95_ms",
              Json.Float (audited.Fleet.Driver.p95_ms -. base.Fleet.Driver.p95_ms) );
            ( "served_rps_ratio",
              Json.Float
                (if base.Fleet.Driver.served_rps > 0.0 then
                   audited.Fleet.Driver.served_rps /. base.Fleet.Driver.served_rps
                 else 0.0) );
          ] );
      ( "audit",
        Json.Obj
          [
            ("appends", Json.Int audited.Fleet.Driver.audit_appends);
            ("checkpoints", Json.Int audited.Fleet.Driver.audit_checkpoints);
            ("proofs", Json.Int audited.Fleet.Driver.audit_proofs);
            ("equivocations", Json.Int audited.Fleet.Driver.audit_equivocations);
            (* the audit path is the only real RSA in the fleet model, so
               the verify-memo counters characterise receipt re-checking *)
            ( "verify_memo",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun (h, m) ->
                        Json.Obj [ ("hits", Json.Int h); ("misses", Json.Int m) ])
                      audited.Fleet.Driver.verify_memo)) );
          ] );
    ]

let detection_to_json ({ det_interval; forked_at; detected_at; evidence_kind } as d) =
  Json.Obj
    [
      ("checkpoint_ms", Json.Float (Sim.Time.to_ms det_interval));
      ("forked_at_ms", Json.Float (Sim.Time.to_ms forked_at));
      ( "detected_at_ms",
        match detected_at with Some t -> Json.Float (Sim.Time.to_ms t) | None -> Json.Null
      );
      ( "latency_ms",
        match detected_at with
        | Some t -> Json.Float (Sim.Time.to_ms (t - forked_at))
        | None -> Json.Null );
      ("within_interval", Json.Bool (within_interval d));
      ("evidence", Json.Str evidence_kind);
    ]

let to_json { seed; scale; rows; detections } =
  Json.Obj
    [
      ("experiment", Json.Str "audit");
      ("seed", Json.Int seed);
      ("scale", Json.Str scale);
      ( "model",
        Json.Obj
          [
            ("cold_attest_ms", Json.Float Fleet.Driver.cold_attest_ms);
            ( "audit_verdict_ms",
              Json.Obj
                (List.map
                   (fun n ->
                     (string_of_int n, Json.Float (Fleet.Driver.audit_verdict_ms ~size:n)))
                   [ 1; 1024; 65536 ]) );
          ] );
      ("rows", Json.List (List.map row_to_json rows));
      ("detection", Json.List (List.map detection_to_json detections));
    ]
