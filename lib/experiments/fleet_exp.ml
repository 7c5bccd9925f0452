type row = {
  rate : float;
  as_count : int;
  ttl : Sim.Time.t;
  domains : int;
  host_wall_s : float;
  r : Fleet.Driver.result;
}

type sharded = { curve : row list; identical : bool }

type result = { seed : int; scale : string; rows : row list; sharded : sharded }

type sweep = {
  rates : float list;
  as_counts : int list;
  ttls : Sim.Time.t list;
  base : Fleet.Driver.config;
}

let default_sweep ~seed =
  {
    rates = [ 4.0; 8.0; 16.0 ];
    as_counts = [ 1; 2; 4 ];
    ttls = [ 0; Sim.Time.sec 30 ];
    base = { Fleet.Driver.default_config with seed };
  }

let smoke_sweep ~seed =
  {
    (* 24 req/s saturates one capacity-1 shard (~9.4 req/s cold with the
       CRT-recalibrated quote_sign), so even the smoke sweep shows the
       served-throughput gain from sharding. *)
    rates = [ 24.0 ];
    as_counts = [ 1; 2 ];
    ttls = [ 0; Sim.Time.sec 10 ];
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

(* The sharded scaling scenario: the fleet the epoch-barrier driver exists
   for.  [`Default] is the headline row — 10^5 VMs offered >10^3 req/s —
   run once per domain count to (a) gate byte-identity of the results and
   (b) record the host wall-clock curve.  [`Smoke] shrinks it to CI size
   but keeps as_count > domains > 1 so the barrier protocol is exercised. *)
let sharded_scenario ~seed = function
  | `Default ->
      ( {
          Fleet.Driver.default_config with
          seed;
          servers = 2000;
          vms = 100_000;
          as_count = 16;
          as_capacity = 16;
          queue_depth = 64;
          ttl = Sim.Time.sec 30;
          rate_per_s = 1200.0;
          duration = Sim.Time.sec 30;
          drain = Sim.Time.sec 30;
          churn_period = Sim.Time.sec 1;
          hot_vms = 4096;
          epoch = Sim.Time.ms 250;
        },
        [ 1; 2; 4; 8 ] )
  | `Smoke ->
      ( {
          Fleet.Driver.default_config with
          seed;
          servers = 64;
          vms = 400;
          as_count = 4;
          as_capacity = 2;
          queue_depth = 8;
          ttl = Sim.Time.sec 10;
          rate_per_s = 40.0;
          duration = Sim.Time.sec 5;
          drain = Sim.Time.sec 5;
          churn_period = Sim.Time.ms 500;
          hot_vms = 32;
          epoch = Sim.Time.ms 50;
        },
        [ 1; 2 ] )

let run ?(seed = 2015) ?(scale = Common.scale_of_env ()) () =
  let sweep, scale_name =
    match scale with
    | `Default -> (default_sweep ~seed, "default")
    | `Smoke -> (smoke_sweep ~seed, "smoke")
  in
  let rows =
    List.concat_map
      (fun rate ->
        List.concat_map
          (fun as_count ->
            List.map
              (fun ttl ->
                let config =
                  { sweep.base with Fleet.Driver.rate_per_s = rate; as_count; ttl }
                in
                let r, host_wall_s = Common.timed config in
                { rate; as_count; ttl; domains = 1; host_wall_s; r })
              sweep.ttls)
          sweep.as_counts)
      sweep.rates
  in
  (* One heterogeneous-backend row at the top offered rate: three AS shards,
     each fronting a different trust backend, cache off — the per-backend
     served split shows how the cheaper vTPM/CVM crypto shifts capacity. *)
  let hetero =
    let rate = List.fold_left Float.max 0.0 sweep.rates in
    let config =
      {
        sweep.base with
        Fleet.Driver.rate_per_s = rate;
        as_count = 3;
        ttl = 0;
        backends = [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |];
      }
    in
    let r, host_wall_s = Common.timed config in
    { rate; as_count = 3; ttl = 0; domains = 1; host_wall_s; r }
  in
  (* The sharded scenario, once per domain count.  Identity is judged on
     {!Fleet.Driver.fingerprint}, which hashes every result field except
     the config — counters, percentiles and the per-shard trace digest. *)
  let sharded =
    let config, domain_counts = sharded_scenario ~seed scale in
    let curve =
      List.map
        (fun domains ->
          let r, host_wall_s = Common.timed { config with Fleet.Driver.domains } in
          {
            rate = config.Fleet.Driver.rate_per_s;
            as_count = config.Fleet.Driver.as_count;
            ttl = config.Fleet.Driver.ttl;
            domains;
            host_wall_s;
            r;
          })
        domain_counts
    in
    { curve; identical = Common.same_fingerprint (List.map (fun row -> row.r) curve) }
  in
  { seed; scale = scale_name; rows = rows @ [ hetero ] @ sharded.curve; sharded }

let clean { sharded; _ } =
  sharded.identical
  && match sharded.curve with first :: _ :: _ -> first.domains = 1 | _ -> false

let print { seed; scale; rows; sharded } =
  Common.section
    (Printf.sprintf "Fleet: attestation at scale (seed %d, %s sweep)" seed scale);
  Printf.printf "cost model: cold attestation %.0f ms end-to-end, cache hit %.0f ms\n\n"
    Fleet.Driver.cold_attest_ms Fleet.Driver.cache_hit_ms;
  Printf.printf "%5s %3s %7s %3s | %7s %7s %7s | %7s %7s %7s | %5s %6s %5s %5s\n" "rate"
    "AS" "ttl(s)" "dom" "off/s" "srv/s" "shed" "p50ms" "p95ms" "p99ms" "hit%" "coal"
    "meas" "maxQ";
  List.iter
    (fun { rate; as_count; ttl; domains; r; _ } ->
      Printf.printf
        "%5.1f %3d %7.0f %3d | %7.2f %7.2f %7d | %7.0f %7.0f %7.0f | %5.1f %6d %5d %5d\n"
        rate as_count (Sim.Time.to_sec ttl) domains r.Fleet.Driver.offered_rps
        r.Fleet.Driver.served_rps
        (r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic
       + r.Fleet.Driver.shed_recheck)
        r.Fleet.Driver.p50_ms r.Fleet.Driver.p95_ms r.Fleet.Driver.p99_ms
        (100.0 *. r.Fleet.Driver.cache_hit_rate)
        r.Fleet.Driver.coalesced r.Fleet.Driver.measurements r.Fleet.Driver.max_queue_depth)
    rows;
  (* Shard-scaling summary: served throughput at the highest offered rate,
     cache off — the number the acceptance criterion watches. *)
  let top_rate = List.fold_left (fun acc r -> Float.max acc r.rate) 0.0 rows in
  let scaling =
    List.filter (fun r -> r.rate = top_rate && r.ttl = 0 && r.domains = 1) rows
    |> List.sort (fun a b -> compare a.as_count b.as_count)
  in
  if scaling <> [] then begin
    Printf.printf "\nShard scaling at %.0f req/s offered (cache off):\n" top_rate;
    List.iter
      (fun { as_count; r; _ } ->
        Printf.printf "  %d AS: %6.2f served/s  %s\n" as_count r.Fleet.Driver.served_rps
          (Common.bar r.Fleet.Driver.served_rps))
      scaling
  end;
  (* Per-backend split of any heterogeneous rows. *)
  List.iter
    (fun { r; _ } ->
      match r.Fleet.Driver.served_by_backend with
      | [] | [ _ ] -> ()
      | served ->
          let duration_s =
            Sim.Time.to_sec r.Fleet.Driver.config.Fleet.Driver.duration
          in
          Printf.printf "\nHeterogeneous backends, served split:\n";
          List.iter
            (fun (kind, n) ->
              Printf.printf "  %-8s %6d served  %6.2f/s\n" kind n
                (float_of_int n /. duration_s))
            served)
    rows;
  (* Parallel-shard scaling: the same simulation at each domain count must
     be byte-identical; the host wall clock is what parallelism buys. *)
  (match sharded.curve with
  | [] -> ()
  | base :: _ ->
      Printf.printf
        "\nEpoch-barrier sharding: %d VMs, %d AS shards, %.0f req/s offered, %d epochs:\n"
        base.r.Fleet.Driver.config.Fleet.Driver.vms
        base.r.Fleet.Driver.config.Fleet.Driver.as_count base.rate
        base.r.Fleet.Driver.epochs;
      List.iter
        (fun row ->
          Printf.printf "  domains=%d  %7.2f served/s  host %6.2fs wall\n" row.domains
            row.r.Fleet.Driver.served_rps row.host_wall_s)
        sharded.curve;
      Printf.printf "  results byte-identical across domain counts: %b\n"
        sharded.identical)

(* Present only when the row ran a non-default backend mix, mirroring the
   audit_fields discipline: all-classic rows keep their historical bytes. *)
let backend_fields (r : Fleet.Driver.result) =
  let bs = r.Fleet.Driver.config.Fleet.Driver.backends in
  let all_classic = Array.for_all (fun k -> k = Tpm.Backend.Classic) bs in
  if all_classic then []
  else
    let duration_s =
      Sim.Time.to_sec r.Fleet.Driver.config.Fleet.Driver.duration
    in
    [
      ( "backends",
        Json.Obj
          [
            ( "mix",
              Json.List
                (Array.to_list
                   (Array.map (fun k -> Json.Str (Tpm.Backend.kind_to_string k)) bs)) );
            ( "served",
              Json.Obj
                (List.map
                   (fun (k, n) -> (k, Json.Int n))
                   r.Fleet.Driver.served_by_backend) );
            ( "served_rps",
              Json.Obj
                (List.map
                   (fun (k, n) -> (k, Json.Float (float_of_int n /. duration_s)))
                   r.Fleet.Driver.served_by_backend) );
          ] );
    ]

(* Present only when the row ran with auditing on, so artifacts from
   audit-off sweeps (the committed BENCH files) stay byte-identical. *)
let audit_fields (r : Fleet.Driver.result) =
  if r.Fleet.Driver.config.Fleet.Driver.audit_checkpoint <= 0 then []
  else
    [
      ( "audit",
        Json.Obj
          [
            ( "checkpoint_ms",
              Json.Float
                (Sim.Time.to_ms r.Fleet.Driver.config.Fleet.Driver.audit_checkpoint) );
            ("appends", Json.Int r.Fleet.Driver.audit_appends);
            ("checkpoints", Json.Int r.Fleet.Driver.audit_checkpoints);
            ("proofs", Json.Int r.Fleet.Driver.audit_proofs);
            ("equivocations", Json.Int r.Fleet.Driver.audit_equivocations);
          ] );
    ]

(* [host = false] drops the wall-clock field — the only nondeterministic
   byte in a row — so determinism tests can compare full JSON documents. *)
let row_to_json ?(host = true) { rate; as_count; ttl; domains; host_wall_s; r } =
  Json.Obj
    ([
      ("rate_per_s", Json.Float rate);
      ("as_count", Json.Int as_count);
      ("ttl_ms", Json.Float (Sim.Time.to_ms ttl));
      ("domains", Json.Int domains);
      ("vms_total", Json.Int r.Fleet.Driver.config.Fleet.Driver.vms);
     ]
    @ (if host then [ ("host_wall_s", Json.Float host_wall_s) ] else [])
    @ [
        ("offered", Json.Int r.Fleet.Driver.offered);
        ("served", Json.Int r.Fleet.Driver.served);
        ("offered_rps", Json.Float r.Fleet.Driver.offered_rps);
        ("served_rps", Json.Float r.Fleet.Driver.served_rps);
        ("mean_ms", Json.Float r.Fleet.Driver.mean_ms);
        ("p50_ms", Json.Float r.Fleet.Driver.p50_ms);
        ("p95_ms", Json.Float r.Fleet.Driver.p95_ms);
        ("p99_ms", Json.Float r.Fleet.Driver.p99_ms);
        ("cache_hits", Json.Int r.Fleet.Driver.cache_hits);
        ("cache_hit_rate", Json.Float r.Fleet.Driver.cache_hit_rate);
        ( "shed",
          Json.Obj
            [
              ("customer", Json.Int r.Fleet.Driver.shed_customer);
              ("periodic", Json.Int r.Fleet.Driver.shed_periodic);
              ("recheck", Json.Int r.Fleet.Driver.shed_recheck);
              ( "total",
                Json.Int
                  (r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic
                 + r.Fleet.Driver.shed_recheck) );
            ] );
        ("coalesced", Json.Int r.Fleet.Driver.coalesced);
        ("measurements", Json.Int r.Fleet.Driver.measurements);
        ("unhealthy", Json.Int r.Fleet.Driver.unhealthy);
        ("invalidations", Json.Int r.Fleet.Driver.invalidations);
        ("migrations", Json.Int r.Fleet.Driver.migrations);
        ("max_queue_depth", Json.Int r.Fleet.Driver.max_queue_depth);
        ("mean_queue_depth", Json.Float r.Fleet.Driver.mean_queue_depth);
        ("epochs", Json.Int r.Fleet.Driver.epochs);
        ( "verify_memo",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (h, m) -> Json.Obj [ ("hits", Json.Int h); ("misses", Json.Int m) ])
                  r.Fleet.Driver.verify_memo)) );
        ("trace_digest", Json.Str r.Fleet.Driver.trace_digest);
      ]
    @ audit_fields r
    @ backend_fields r)

let to_json ?host { seed; scale; rows; sharded } =
  Json.Obj
    [
      ("experiment", Json.Str "fleet");
      ("seed", Json.Int seed);
      ("scale", Json.Str scale);
      ( "model",
        Json.Obj
          [
            ("cold_attest_ms", Json.Float Fleet.Driver.cold_attest_ms);
            ("cache_hit_ms", Json.Float Fleet.Driver.cache_hit_ms);
          ] );
      ("rows", Json.List (List.map (row_to_json ?host) rows));
      ( "sharded",
        Json.Obj
          ([ ("identical_across_domains", Json.Bool sharded.identical) ]
          @
          match sharded.curve with
          | [] -> []
          | base :: _ ->
              [
                ( "vms_total",
                  Json.Int base.r.Fleet.Driver.config.Fleet.Driver.vms );
                ( "as_count",
                  Json.Int base.r.Fleet.Driver.config.Fleet.Driver.as_count );
                ("rate_per_s", Json.Float base.rate);
                ("offered_rps", Json.Float base.r.Fleet.Driver.offered_rps);
                ("trace_digest", Json.Str base.r.Fleet.Driver.trace_digest);
                ( "fingerprint",
                  Json.Str (Fleet.Driver.fingerprint base.r) );
                ( "domains",
                  Json.List
                    (List.map (fun row -> Json.Int row.domains) sharded.curve) );
              ]
              @
              if
                match host with Some false -> false | _ -> true
              then
                [
                  ( "host_wall_s",
                    Json.List
                      (List.map
                         (fun row -> Json.Float row.host_wall_s)
                         sharded.curve) );
                ]
              else []) );
    ]
