(* Tests for the fleet-scale attestation subsystem: the bounded priority
   queue, verdict cache (unit + controller integration), coalescing,
   deterministic replay, and shard scaling. *)

open Core

(* --- Pqueue: priority classes, backpressure ------------------------------- *)

let test_pqueue_priority_order () =
  let q = Fleet.Pqueue.create ~depth:8 in
  let push p v = ignore (Fleet.Pqueue.push q p v : string Fleet.Pqueue.admission) in
  push Fleet.Pqueue.Recheck "r1";
  push Fleet.Pqueue.Periodic "p1";
  push Fleet.Pqueue.Customer "c1";
  push Fleet.Pqueue.Periodic "p2";
  let order = List.init 4 (fun _ -> snd (Option.get (Fleet.Pqueue.pop q))) in
  Alcotest.(check (list string)) "customer first, FIFO within class"
    [ "c1"; "p1"; "p2"; "r1" ] order

let test_pqueue_sheds_lowest_first () =
  let q = Fleet.Pqueue.create ~depth:3 in
  ignore (Fleet.Pqueue.push q Fleet.Pqueue.Periodic "p1" : string Fleet.Pqueue.admission);
  ignore (Fleet.Pqueue.push q Fleet.Pqueue.Recheck "r1" : string Fleet.Pqueue.admission);
  ignore (Fleet.Pqueue.push q Fleet.Pqueue.Recheck "r2" : string Fleet.Pqueue.admission);
  (* Full.  A customer arrival evicts the oldest of the lowest class. *)
  (match Fleet.Pqueue.push q Fleet.Pqueue.Customer "c1" with
  | Fleet.Pqueue.Evicted (Fleet.Pqueue.Recheck, "r1") -> ()
  | _ -> Alcotest.fail "expected eviction of recheck r1");
  (* Another customer arrival evicts the remaining recheck... *)
  (match Fleet.Pqueue.push q Fleet.Pqueue.Customer "c2" with
  | Fleet.Pqueue.Evicted (Fleet.Pqueue.Recheck, "r2") -> ()
  | _ -> Alcotest.fail "expected eviction of recheck r2");
  (* ...then the periodic class starts paying. *)
  (match Fleet.Pqueue.push q Fleet.Pqueue.Customer "c3" with
  | Fleet.Pqueue.Evicted (Fleet.Pqueue.Periodic, "p1") -> ()
  | _ -> Alcotest.fail "expected eviction of periodic p1");
  (* Full of customers: an equal-priority arrival is rejected, never an
     eviction among equals. *)
  (match Fleet.Pqueue.push q Fleet.Pqueue.Customer "c4" with
  | Fleet.Pqueue.Rejected -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* And a lower-priority arrival is rejected outright. *)
  match Fleet.Pqueue.push q Fleet.Pqueue.Recheck "r3" with
  | Fleet.Pqueue.Rejected -> ()
  | _ -> Alcotest.fail "expected rejection of recheck into full customer queue"

(* --- Verdict cache (unit) -------------------------------------------------- *)

let report ?(status = Report.Healthy) ~vid ~property () =
  { Report.vid; property; status; evidence = "test"; produced_at = 0 }

let test_cache_ttl_and_expiry () =
  let now = ref 0 in
  let cache = Verdict_cache.create ~ttl:(Sim.Time.sec 10) ~clock:(fun () -> !now) () in
  let r = report ~vid:"vm-1" ~property:Property.Startup_integrity () in
  Alcotest.(check bool) "healthy stored" true (Verdict_cache.store cache r);
  Alcotest.(check bool) "fresh hit" true
    (Verdict_cache.find cache ~vid:"vm-1" ~property:Property.Startup_integrity <> None);
  now := Sim.Time.sec 11;
  Alcotest.(check bool) "expired" true
    (Verdict_cache.find cache ~vid:"vm-1" ~property:Property.Startup_integrity = None);
  Alcotest.(check int) "expired entry dropped" 0 (Verdict_cache.size cache)

let test_cache_never_stores_unhealthy () =
  let cache = Verdict_cache.create ~ttl:(Sim.Time.sec 10) ~clock:(fun () -> 0) () in
  Alcotest.(check bool) "compromised not stored" false
    (Verdict_cache.store cache
       (report ~status:(Report.Compromised "rootkit") ~vid:"vm-1"
          ~property:Property.Runtime_integrity ()));
  Alcotest.(check bool) "unknown not stored" false
    (Verdict_cache.store cache
       (report ~status:(Report.Unknown "unreachable") ~vid:"vm-1"
          ~property:Property.Runtime_integrity ()));
  Alcotest.(check int) "empty" 0 (Verdict_cache.size cache)

let test_cache_disabled_by_default () =
  let cache = Verdict_cache.create ~clock:(fun () -> 0) () in
  Alcotest.(check bool) "disabled" false (Verdict_cache.enabled cache);
  Alcotest.(check bool) "store no-op" false
    (Verdict_cache.store cache (report ~vid:"vm-1" ~property:Property.Startup_integrity ()));
  Alcotest.(check bool) "find misses" true
    (Verdict_cache.find cache ~vid:"vm-1" ~property:Property.Startup_integrity = None)

let test_cache_invalidate_vm () =
  let cache = Verdict_cache.create ~ttl:(Sim.Time.sec 60) ~clock:(fun () -> 0) () in
  ignore (Verdict_cache.store cache (report ~vid:"vm-1" ~property:Property.Startup_integrity ()) : bool);
  ignore (Verdict_cache.store cache (report ~vid:"vm-1" ~property:Property.Runtime_integrity ()) : bool);
  ignore (Verdict_cache.store cache (report ~vid:"vm-2" ~property:Property.Startup_integrity ()) : bool);
  Alcotest.(check int) "both vm-1 entries dropped" 2 (Verdict_cache.invalidate_vm cache ~vid:"vm-1");
  Alcotest.(check int) "vm-2 untouched" 1 (Verdict_cache.size cache)

(* --- Controller integration ------------------------------------------------ *)

let fast_config = { Cloud.default_config with key_bits = 512 }

let launch_ok customer ~properties =
  match Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small" ~properties () with
  | Ok info -> info.Commands.vid
  | Error e -> Alcotest.failf "launch failed: %a" Cloud.Customer.pp_error e

let attest_cost controller ~vid ~property =
  let drbg = Crypto.Drbg.create ~seed:"fleet-test" in
  let nonce = Crypto.Drbg.nonce drbg in
  let result, ledger = Controller.attest controller { Protocol.vid; property; nonce } in
  match result with
  | Ok creport -> (creport.Protocol.report, Ledger.total ledger)
  | Error e -> Alcotest.failf "attest failed: %s" e

let test_controller_cached_reattestation_cheaper () =
  let cloud = Cloud.build ~config:fast_config () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid = launch_ok customer ~properties:[ Property.Startup_integrity ] in
  let controller = Cloud.controller cloud in
  Controller.set_verdict_cache_ttl controller (Sim.Time.minutes 5);
  let r1, cold = attest_cost controller ~vid ~property:Property.Startup_integrity in
  let r2, cached = attest_cost controller ~vid ~property:Property.Startup_integrity in
  Alcotest.(check bool) "cold healthy" true (Report.is_healthy r1);
  Alcotest.(check bool) "cached healthy" true (Report.is_healthy r2);
  Alcotest.(check bool)
    (Printf.sprintf "cached (%d us) < cold (%d us)" cached cold)
    true (cached < cold);
  let stats = Verdict_cache.stats (Controller.verdict_cache controller) in
  Alcotest.(check int) "one hit" 1 stats.Verdict_cache.hits

let test_controller_lifecycle_invalidates () =
  let cloud = Cloud.build ~config:fast_config () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid = launch_ok customer ~properties:[ Property.Startup_integrity ] in
  let controller = Cloud.controller cloud in
  Controller.set_verdict_cache_ttl controller (Sim.Time.minutes 5);
  let cache = Controller.verdict_cache controller in
  ignore (attest_cost controller ~vid ~property:Property.Startup_integrity);
  Alcotest.(check int) "verdict cached" 1 (Verdict_cache.size cache);
  (* Suspension invalidates... *)
  (match Controller.respond controller Controller.Suspend_vm ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "suspend failed: %s" e);
  Alcotest.(check int) "suspend invalidated" 0 (Verdict_cache.size cache);
  (* ...and so does resuming. *)
  (match Controller.resume controller ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resume failed: %s" e);
  ignore (attest_cost controller ~vid ~property:Property.Startup_integrity);
  Alcotest.(check int) "re-cached after resume" 1 (Verdict_cache.size cache);
  (* Migration lands on a new host: the old verdict must not survive it.
     Post-migration attestation may legitimately repopulate the cache, but
     the controller must have invalidated in between; observe via stats. *)
  let before = (Verdict_cache.stats cache).Verdict_cache.invalidations in
  (match Controller.respond controller Controller.Migrate_vm ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate failed: %s" e);
  let after = (Verdict_cache.stats cache).Verdict_cache.invalidations in
  Alcotest.(check bool) "migration invalidated" true (after > before);
  (* Termination clears whatever the post-migration attestation cached. *)
  Alcotest.(check bool) "terminate ok" true (Controller.terminate controller ~vid);
  Alcotest.(check int) "terminate invalidated" 0 (Verdict_cache.size cache)

(* Freshness across lifecycle transitions, observed from the caller's side:
   the verdict handed back after a transition must be a fresh measurement,
   never the pre-transition cache entry.  These are the example-based twins
   of the fuzzer's cache-consistency oracle (and of its planted bugs). *)

let test_controller_migrate_then_attest_is_fresh () =
  let cloud = Cloud.build ~config:fast_config () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid =
    launch_ok customer ~properties:[ Property.Startup_integrity; Property.Runtime_integrity ]
  in
  let controller = Cloud.controller cloud in
  Controller.set_verdict_cache_ttl controller (Sim.Time.minutes 5);
  let cache = Controller.verdict_cache controller in
  ignore (attest_cost controller ~vid ~property:Property.Runtime_integrity);
  ignore (attest_cost controller ~vid ~property:Property.Runtime_integrity);
  Alcotest.(check int) "warm before migrate" 1 (Verdict_cache.stats cache).Verdict_cache.hits;
  (match Controller.respond controller Controller.Migrate_vm ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate failed: %s" e);
  (* Post-migration attestation only re-establishes Startup_integrity; the
     pre-migration Runtime_integrity verdict measured the old host and must
     not be served for the new one. *)
  let r, _ = attest_cost controller ~vid ~property:Property.Runtime_integrity in
  Alcotest.(check bool) "fresh verdict healthy" true (Report.is_healthy r);
  Alcotest.(check int) "no stale hit after migrate" 1
    (Verdict_cache.stats cache).Verdict_cache.hits

let test_controller_suspend_resume_race_not_stale () =
  let cloud = Cloud.build ~config:fast_config () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid =
    launch_ok customer ~properties:[ Property.Startup_integrity; Property.Runtime_integrity ]
  in
  let controller = Cloud.controller cloud in
  Controller.set_verdict_cache_ttl controller (Sim.Time.minutes 5);
  let cache = Controller.verdict_cache controller in
  (match Controller.respond controller Controller.Suspend_vm ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "suspend failed: %s" e);
  (* The race: a customer attestation lands while the VM is suspended and
     its (healthy) verdict enters the cache... *)
  ignore (attest_cost controller ~vid ~property:Property.Runtime_integrity);
  Alcotest.(check int) "verdict cached while suspended" 1 (Verdict_cache.size cache);
  (match Controller.resume controller ~vid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resume failed: %s" e);
  (* ...so the attestation right after resume must re-measure: the cached
     verdict describes the pre-resume world. *)
  ignore (attest_cost controller ~vid ~property:Property.Runtime_integrity);
  Alcotest.(check int) "no stale hit after resume" 0
    (Verdict_cache.stats cache).Verdict_cache.hits;
  (* The miss was the invalidation's doing, not the cache being cold-only:
     with no transition in between, the next attestation does hit. *)
  ignore (attest_cost controller ~vid ~property:Property.Runtime_integrity);
  Alcotest.(check int) "cache active again" 1 (Verdict_cache.stats cache).Verdict_cache.hits

let test_controller_batched_duplicates_consistent () =
  (* Regression for a fuzz-campaign find (batch-equivalence, seed 2253): a
     duplicated (vid, property) pair inside one [attest_many] was measured
     twice by the batched round, and the second measurement of the stateful
     covert-channel monitor came back Unknown ("only 0 bursts") — while the
     unbatched loop served the duplicate from the verdict cache the first
     result had just populated.  Duplicates must ride the unbatched path
     after the group round, so both twins answer Healthy. *)
  let cloud = Cloud.build ~config:fast_config () in
  let customer = Cloud.Customer.create cloud ~name:"alice" in
  let vid =
    match
      Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
        ~properties:Property.all ~workload:"busy" ()
    with
    | Ok info -> info.Commands.vid
    | Error e -> Alcotest.failf "launch failed: %a" Cloud.Customer.pp_error e
  in
  Cloud.run_for cloud (Sim.Time.sec 2);
  let controller = Cloud.controller cloud in
  Controller.set_verdict_cache_ttl controller (Sim.Time.minutes 5);
  Controller.set_batching controller true;
  let drbg = Crypto.Drbg.create ~seed:"dup-batch" in
  let mk property = { Protocol.vid; property; nonce = Crypto.Drbg.nonce drbg } in
  let reqs =
    [
      mk Property.Covert_channel_free;
      mk Property.Runtime_integrity;
      mk Property.Covert_channel_free;
    ]
  in
  let results, _ = Controller.attest_many controller reqs in
  let statuses =
    List.map
      (fun ((r : Protocol.attest_request), result) ->
        match result with
        | Ok cr -> cr.Protocol.report.Report.status
        | Error e -> Alcotest.failf "attest of %a failed: %s" Property.pp r.Protocol.property e)
      results
  in
  match statuses with
  | [ first; middle; dup ] ->
      Alcotest.(check bool) "first measurement healthy" true (first = Report.Healthy);
      Alcotest.(check bool) "sibling healthy" true (middle = Report.Healthy);
      Alcotest.(check bool) "duplicate not re-measured to a different verdict" true
        (dup = Report.Healthy)
  | _ -> Alcotest.fail "three results expected"

(* --- Cluster: coalescing --------------------------------------------------- *)

let test_cluster_coalesces_concurrent_requests () =
  let engine = Sim.Engine.create () in
  let metrics = Fleet.Metrics.create () in
  let measured = ref 0 in
  let cluster =
    Fleet.Cluster.create ~engine ~name:"as-test" ~queue_depth:8
      ~service_time:(fun _ -> Sim.Time.ms 100)
      ~measure:(fun ~vid:_ ~property:_ ->
        incr measured;
        Report.Healthy)
      ~metrics ()
  in
  let verdicts = ref [] in
  let submit () =
    Fleet.Cluster.submit cluster ~vid:"vm-1" ~property:Property.Startup_integrity
      ~priority:Fleet.Pqueue.Periodic
      ~on_done:(fun v -> verdicts := v :: !verdicts)
  in
  submit ();
  (* Joins while queued/in service. *)
  ignore (Sim.Engine.schedule_after engine ~delay:(Sim.Time.ms 10) submit : Sim.Engine.handle);
  ignore (Sim.Engine.schedule_after engine ~delay:(Sim.Time.ms 50) submit : Sim.Engine.handle);
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Alcotest.(check int) "one measurement round" 1 !measured;
  Alcotest.(check int) "all three answered" 3 (List.length !verdicts);
  Alcotest.(check bool) "all healthy" true
    (List.for_all (function Fleet.Cluster.Done Report.Healthy -> true | _ -> false) !verdicts);
  Alcotest.(check int) "two coalesced" 2 (Fleet.Metrics.coalesced metrics);
  (* A request after completion starts a fresh measurement. *)
  submit ();
  Sim.Engine.run_until engine (Sim.Time.sec 2);
  Alcotest.(check int) "fresh round after completion" 2 !measured

let test_cluster_shed_verdict () =
  let engine = Sim.Engine.create () in
  let metrics = Fleet.Metrics.create () in
  let cluster =
    Fleet.Cluster.create ~engine ~name:"as-test" ~queue_depth:1
      ~service_time:(fun _ -> Sim.Time.ms 100)
      ~measure:(fun ~vid:_ ~property:_ -> Report.Healthy)
      ~metrics ()
  in
  let shed = ref 0 in
  let submit vid priority =
    Fleet.Cluster.submit cluster ~vid ~property:Property.Startup_integrity ~priority
      ~on_done:(function Fleet.Cluster.Shed -> incr shed | Fleet.Cluster.Done _ -> ())
  in
  (* First occupies the single service slot, second fills the queue, third
     (recheck) is rejected, and a customer arrival evicts the queued
     recheck. *)
  submit "vm-1" Fleet.Pqueue.Periodic;
  submit "vm-2" Fleet.Pqueue.Recheck;
  submit "vm-3" Fleet.Pqueue.Recheck;
  Alcotest.(check int) "recheck rejected" 1 !shed;
  submit "vm-4" Fleet.Pqueue.Customer;
  Alcotest.(check int) "queued recheck evicted" 2 !shed;
  Alcotest.(check int) "sheds recorded by class" 2
    (Fleet.Metrics.shed metrics Fleet.Pqueue.Recheck);
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Alcotest.(check int) "survivors measured" 2 (Fleet.Metrics.measurements metrics)

(* --- Cluster: batching ------------------------------------------------------ *)

let batch_cluster ~engine ~metrics ~batch_max ~batch_window =
  Fleet.Cluster.create ~engine ~name:"as-batch" ~queue_depth:16
    ~service_time:(fun n -> Sim.Time.ms (20 + (10 * n)))
    ~measure:(fun ~vid:_ ~property:_ -> Report.Healthy)
    ~metrics ~batch_max ~batch_window ()

let test_cluster_batch_window_flush () =
  let engine = Sim.Engine.create () in
  let metrics = Fleet.Metrics.create () in
  let cluster = batch_cluster ~engine ~metrics ~batch_max:4 ~batch_window:(Sim.Time.ms 200) in
  let done_at = ref [] in
  let submit vid =
    Fleet.Cluster.submit cluster ~vid ~property:Property.Startup_integrity
      ~priority:Fleet.Pqueue.Periodic
      ~on_done:(fun _ -> done_at := Sim.Engine.now engine :: !done_at)
  in
  submit "vm-1";
  submit "vm-2";
  (* Two jobs, bound 4: the partial batch waits for the window, then both
     are served in one round. *)
  Sim.Engine.run_until engine (Sim.Time.sec 2);
  Alcotest.(check int) "both served" 2 (List.length !done_at);
  Alcotest.(check int) "as one batched round" 1 (Fleet.Cluster.batches cluster);
  Alcotest.(check int) "both measured" 2 (Fleet.Metrics.measurements metrics);
  Alcotest.(check (float 0.001)) "mean batch size" 2.0 (Fleet.Metrics.mean_batch_size metrics);
  (* Completion = window (200 ms) + 2-job round (40 ms); well past the
     window but far from a pair of back-to-back 100 ms singles. *)
  List.iter
    (fun at ->
      Alcotest.(check int) "flushed when the window expired" (Sim.Time.ms 240) at)
    !done_at

let test_cluster_full_batch_skips_window () =
  let engine = Sim.Engine.create () in
  let metrics = Fleet.Metrics.create () in
  let cluster = batch_cluster ~engine ~metrics ~batch_max:2 ~batch_window:(Sim.Time.sec 10) in
  let finished = ref [] in
  let submit vid =
    Fleet.Cluster.submit cluster ~vid ~property:Property.Startup_integrity
      ~priority:Fleet.Pqueue.Periodic
      ~on_done:(fun _ -> finished := Sim.Engine.now engine :: !finished)
  in
  submit "vm-1";
  submit "vm-2";
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  (* The batch filled to batch_max, so it must not have waited the 10 s
     window: a full batch flushes immediately. *)
  Alcotest.(check int) "both served" 2 (List.length !finished);
  Alcotest.(check int) "one round" 1 (Fleet.Cluster.batches cluster);
  List.iter
    (fun at -> Alcotest.(check int) "no window wait" (Sim.Time.ms 40) at)
    !finished

let test_cluster_customer_flushes_window () =
  let engine = Sim.Engine.create () in
  let metrics = Fleet.Metrics.create () in
  let cluster = batch_cluster ~engine ~metrics ~batch_max:8 ~batch_window:(Sim.Time.sec 10) in
  let customer_done = ref (-1) in
  Fleet.Cluster.submit cluster ~vid:"vm-1" ~property:Property.Startup_integrity
    ~priority:Fleet.Pqueue.Recheck
    ~on_done:(fun _ -> ());
  Fleet.Cluster.submit cluster ~vid:"vm-2" ~property:Property.Startup_integrity
    ~priority:Fleet.Pqueue.Periodic
    ~on_done:(fun _ -> ());
  (* A customer arrival must not sit behind a 10 s batch window. *)
  ignore
    (Sim.Engine.schedule_after engine ~delay:(Sim.Time.ms 50) (fun () ->
         Fleet.Cluster.submit cluster ~vid:"vm-3" ~property:Property.Startup_integrity
           ~priority:Fleet.Pqueue.Customer
           ~on_done:(fun _ -> customer_done := Sim.Engine.now engine))
      : Sim.Engine.handle);
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  (* Arrival at 50 ms + 3-job round (50 ms): served at 100 ms, not 10 s. *)
  Alcotest.(check int) "customer flushed the partial batch" (Sim.Time.ms 100) !customer_done;
  Alcotest.(check int) "one batched round of three" 1 (Fleet.Cluster.batches cluster);
  Alcotest.(check (float 0.001)) "batch size 3" 3.0 (Fleet.Metrics.mean_batch_size metrics)

(* --- Driver: determinism, sharding, caching -------------------------------- *)

let smoke_config =
  {
    Fleet.Driver.default_config with
    servers = 40;
    vms = 200;
    duration = Sim.Time.sec 10;
    drain = Sim.Time.sec 10;
    hot_vms = 32;
    rate_per_s = 10.0;
  }

let test_driver_deterministic_replay () =
  (* ~host:false drops the host_wall_s columns — wall-clock is the one
     intentionally nondeterministic part of the artifact. *)
  let a = Experiments.Fleet_exp.run ~seed:7 ~scale:`Smoke () in
  let b = Experiments.Fleet_exp.run ~seed:7 ~scale:`Smoke () in
  Alcotest.(check string) "same seed, identical JSON"
    (Experiments.Json.to_string (Experiments.Fleet_exp.to_json ~host:false a))
    (Experiments.Json.to_string (Experiments.Fleet_exp.to_json ~host:false b));
  let c = Experiments.Fleet_exp.run ~seed:8 ~scale:`Smoke () in
  Alcotest.(check bool) "different seed differs" false
    (String.equal
       (Experiments.Json.to_string (Experiments.Fleet_exp.to_json ~host:false a))
       (Experiments.Json.to_string (Experiments.Fleet_exp.to_json ~host:false c)))

let test_driver_rejects_empty_backends () =
  (* Rejected before any shard exists, with the field named, rather than
     as a bare index error from the first cluster's backend lookup. *)
  match Fleet.Driver.run { smoke_config with Fleet.Driver.backends = [||] } with
  | _ -> Alcotest.fail "an empty backends array must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message names the field"
        "Fleet.Driver.run: config.backends is empty; give at least one backend kind" msg

let sharded_config =
  (* Four home shards, churn and a live cache so arrivals, migrations and
     invalidations all cross shard boundaries during the run. *)
  {
    smoke_config with
    Fleet.Driver.as_count = 4;
    as_capacity = 2;
    rate_per_s = 24.0;
    ttl = Sim.Time.sec 10;
    churn_period = Sim.Time.ms 500;
    duration = Sim.Time.sec 5;
    drain = Sim.Time.sec 5;
    epoch = Sim.Time.ms 50;
  }

let test_driver_domains_byte_identical () =
  let run domains = Fleet.Driver.run { sharded_config with Fleet.Driver.domains } in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  (* The scenario must actually exercise the cross-shard machinery, or the
     identity below is vacuous. *)
  Alcotest.(check bool) "migrations happened" true (r1.Fleet.Driver.migrations > 0);
  Alcotest.(check bool) "churn invalidated caches" true (r1.Fleet.Driver.invalidations > 0);
  Alcotest.(check bool) "cache hits happened" true (r1.Fleet.Driver.cache_hits > 0);
  Alcotest.(check string) "trace digest 1 = 2" r1.Fleet.Driver.trace_digest
    r2.Fleet.Driver.trace_digest;
  Alcotest.(check string) "trace digest 1 = 4" r1.Fleet.Driver.trace_digest
    r4.Fleet.Driver.trace_digest;
  Alcotest.(check string) "fingerprint 1 = 2" (Fleet.Driver.fingerprint r1)
    (Fleet.Driver.fingerprint r2);
  Alcotest.(check string) "fingerprint 1 = 4" (Fleet.Driver.fingerprint r1)
    (Fleet.Driver.fingerprint r4);
  (* Structural check on the records too (sans config, which differs in
     [domains] by construction, and sans the per-domain memo counters,
     whose split across slots depends on the domain count). *)
  Alcotest.(check bool) "results structurally equal" true
    ({ r1 with Fleet.Driver.config = sharded_config; verify_memo = [||] }
    = { r2 with Fleet.Driver.config = sharded_config; verify_memo = [||] });
  (* And a different seed gives a different trace. *)
  let r1' =
    Fleet.Driver.run { sharded_config with Fleet.Driver.seed = sharded_config.Fleet.Driver.seed + 1 }
  in
  Alcotest.(check bool) "different seed, different digest" false
    (String.equal r1.Fleet.Driver.trace_digest r1'.Fleet.Driver.trace_digest)

let test_epoch_barrier_migration_invalidates () =
  (* Protocol-level: a migration on the source shard emits an [Invalidate]
     for the destination shard; delivering it at the barrier must drop the
     destination's cached verdict so the next attestation re-measures. *)
  let engine = Sim.Engine.create () in
  let cache =
    Verdict_cache.create ~ttl:(Sim.Time.sec 60) ~clock:(fun () -> Sim.Engine.now engine) ()
  in
  ignore
    (Verdict_cache.store cache (report ~vid:"vm-7" ~property:Property.Startup_integrity ())
      : bool);
  Alcotest.(check bool) "cached before the barrier" true
    (Verdict_cache.find cache ~vid:"vm-7" ~property:Property.Startup_integrity <> None);
  let msg =
    { Fleet.Msg.at = Sim.Time.ms 40; src = 0; seq = 0; dst = 1;
      payload = Fleet.Msg.Invalidate { vid = "vm-7" } }
  in
  let barrier = Sim.Time.ms 50 in
  ignore
    (Sim.Engine.schedule engine ~at:barrier (fun () ->
         match msg.Fleet.Msg.payload with
         | Fleet.Msg.Invalidate { vid } -> ignore (Verdict_cache.invalidate_vm cache ~vid : int)
         | _ -> Alcotest.fail "unexpected payload")
      : Sim.Engine.handle);
  Sim.Engine.run_until engine barrier;
  Alcotest.(check bool) "gone after delivery" true
    (Verdict_cache.find cache ~vid:"vm-7" ~property:Property.Startup_integrity = None);
  Alcotest.(check int) "counted as invalidation" 1 (Verdict_cache.stats cache).invalidations;
  (* The (at, src, seq) order is total and collection-order independent. *)
  let m ~at ~src ~seq =
    { Fleet.Msg.at; src; seq; dst = 0; payload = Fleet.Msg.Invalidate { vid = "x" } }
  in
  let ms = [ m ~at:2 ~src:0 ~seq:0; m ~at:1 ~src:1 ~seq:1; m ~at:1 ~src:1 ~seq:0; m ~at:1 ~src:0 ~seq:5 ] in
  let sorted = List.sort Fleet.Msg.compare ms in
  Alcotest.(check (list string)) "sorted by (at, src, seq)"
    [ "1/0/5"; "1/1/0"; "1/1/1"; "2/0/0" ]
    (List.map
       (fun (x : Fleet.Msg.t) -> Printf.sprintf "%d/%d/%d" x.at x.src x.seq)
       sorted)

let test_driver_sharding_raises_throughput () =
  (* Offered load well beyond even four shards' service capacity (~9.4
     req/s cold each since the CRT recalibration of quote_sign). *)
  let run as_count =
    Fleet.Driver.run { smoke_config with Fleet.Driver.as_count; rate_per_s = 48.0 }
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "2 shards (%.1f/s) > 1 shard (%.1f/s)" r2.Fleet.Driver.served_rps
       r1.Fleet.Driver.served_rps)
    true
    (r2.Fleet.Driver.served_rps > r1.Fleet.Driver.served_rps);
  Alcotest.(check bool)
    (Printf.sprintf "4 shards (%.1f/s) > 2 shards (%.1f/s)" r4.Fleet.Driver.served_rps
       r2.Fleet.Driver.served_rps)
    true
    (r4.Fleet.Driver.served_rps > r2.Fleet.Driver.served_rps);
  Alcotest.(check bool) "1 shard sheds under overload" true
    (r1.Fleet.Driver.shed_customer + r1.Fleet.Driver.shed_periodic
     + r1.Fleet.Driver.shed_recheck
    > 0)

let test_driver_cache_ttl_improves_latency () =
  (* Below one shard's service capacity, with a small hot set so repeats are
     frequent; overload would distort both latency distributions. *)
  let config =
    {
      smoke_config with
      Fleet.Driver.rate_per_s = 3.0;
      duration = Sim.Time.sec 20;
      hot_vms = 8;
      hot_p = 0.9;
    }
  in
  let cold = Fleet.Driver.run { config with Fleet.Driver.ttl = 0 } in
  let warm = Fleet.Driver.run { config with Fleet.Driver.ttl = Sim.Time.sec 30 } in
  Alcotest.(check int) "no hits with cache off" 0 cold.Fleet.Driver.cache_hits;
  Alcotest.(check bool) "hits with cache on" true (warm.Fleet.Driver.cache_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm p50 (%.0f ms) < cold p50 (%.0f ms)" warm.Fleet.Driver.p50_ms
       cold.Fleet.Driver.p50_ms)
    true
    (warm.Fleet.Driver.p50_ms < cold.Fleet.Driver.p50_ms);
  Alcotest.(check bool) "churn invalidates" true (warm.Fleet.Driver.invalidations > 0)

(* --- Driver: batching -------------------------------------------------------- *)

let test_driver_batching_raises_saturated_throughput () =
  (* 32 req/s against one capacity-1 shard (~9.4 req/s cold): batching must
     lift served throughput by amortizing the per-round RSA costs. *)
  let base = { smoke_config with Fleet.Driver.rate_per_s = 32.0 } in
  let unbatched = Fleet.Driver.run base in
  let batched =
    Fleet.Driver.run
      { base with
        Fleet.Driver.batch_max = 16;
        batch_window = Sim.Time.ms 100;
        queue_depth = 32;
      }
  in
  Alcotest.(check int) "no batch rounds when off" 0 unbatched.Fleet.Driver.batches;
  Alcotest.(check bool) "batch rounds when on" true (batched.Fleet.Driver.batches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mean batch size > 1 (got %.2f)" batched.Fleet.Driver.mean_batch_size)
    true
    (batched.Fleet.Driver.mean_batch_size > 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "batched (%.1f/s) > unbatched (%.1f/s)" batched.Fleet.Driver.served_rps
       unbatched.Fleet.Driver.served_rps)
    true
    (batched.Fleet.Driver.served_rps > unbatched.Fleet.Driver.served_rps)

let test_driver_batch_one_is_inert () =
  (* batch_max = 1 must be byte-for-byte the unbatched scheduler: even a
     non-zero window changes nothing, and no batch rounds are counted. *)
  let base = { smoke_config with Fleet.Driver.rate_per_s = 12.0 } in
  let plain = Fleet.Driver.run base in
  let windowed =
    Fleet.Driver.run { base with Fleet.Driver.batch_max = 1; batch_window = Sim.Time.ms 100 }
  in
  Alcotest.(check int) "served identical" plain.Fleet.Driver.served windowed.Fleet.Driver.served;
  Alcotest.(check (float 0.0)) "p50 identical" plain.Fleet.Driver.p50_ms
    windowed.Fleet.Driver.p50_ms;
  Alcotest.(check (float 0.0)) "p99 identical" plain.Fleet.Driver.p99_ms
    windowed.Fleet.Driver.p99_ms;
  Alcotest.(check int) "same measurements" plain.Fleet.Driver.measurements
    windowed.Fleet.Driver.measurements;
  Alcotest.(check int) "zero batch rounds" 0 windowed.Fleet.Driver.batches;
  Alcotest.(check (float 0.0)) "no batch size" 0.0 windowed.Fleet.Driver.mean_batch_size

let test_driver_shed_breakdown_sums () =
  (* The per-class shed counters must decompose the total drop count:
     offered = served + coalesced + cache hits + sheds. *)
  let r = Fleet.Driver.run { smoke_config with Fleet.Driver.rate_per_s = 48.0 } in
  let sheds =
    r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic + r.Fleet.Driver.shed_recheck
  in
  Alcotest.(check bool) "overload sheds" true (sheds > 0);
  Alcotest.(check int) "offered fully accounted" r.Fleet.Driver.offered
    (r.Fleet.Driver.served + sheds);
  (* Customers are the last class to pay. *)
  Alcotest.(check bool) "customer sheds least" true
    (r.Fleet.Driver.shed_customer <= r.Fleet.Driver.shed_periodic)

let test_batch_exp_batch1_reproduces_fleet () =
  (* The batch-1 column of the batch experiment and the unbatched fleet
     experiment share a configuration (rate 24, 1 shard, cache off at smoke
     scale) — their numbers must agree exactly. *)
  let fleet = Experiments.Fleet_exp.run ~seed:7 ~scale:`Smoke () in
  let batch = Experiments.Batch_exp.run ~seed:7 ~scale:`Smoke () in
  let fleet_row =
    List.find
      (fun (row : Experiments.Fleet_exp.row) ->
        row.rate = 24.0 && row.as_count = 1 && row.ttl = 0)
      fleet.Experiments.Fleet_exp.rows
  in
  let batch_row =
    List.find
      (fun (row : Experiments.Batch_exp.row) -> row.batch = 1 && row.rate = 24.0)
      batch.Experiments.Batch_exp.rows
  in
  Alcotest.(check bool) "identical driver results" true
    (fleet_row.Experiments.Fleet_exp.r = batch_row.Experiments.Batch_exp.r);
  (* And the batched column of the same sweep actually batches. *)
  let batched_row =
    List.find
      (fun (row : Experiments.Batch_exp.row) -> row.batch = 8 && row.rate = 24.0)
      batch.Experiments.Batch_exp.rows
  in
  Alcotest.(check bool) "batch-8 rounds recorded" true
    (batched_row.Experiments.Batch_exp.r.Fleet.Driver.batches > 0);
  Alcotest.(check bool) "batch-8 serves more" true
    (batched_row.Experiments.Batch_exp.r.Fleet.Driver.served_rps
    > batch_row.Experiments.Batch_exp.r.Fleet.Driver.served_rps)

(* --- Every driver path, pinned ------------------------------------------------ *)

(* Small runs over each path of the sharded driver, at the scale of
   test_monitor's fleet base: 60 VMs on 24 servers in 3 AS clusters,
   churn every 400 ms (about two migrations in three cross clusters) and
   a 5 s verdict cache.  Each run pins its fingerprint and its RSA
   verify-memo totals at domains = 1, and domains = 2 must agree. *)
let pinned_base =
  {
    Fleet.Driver.default_config with
    Fleet.Driver.seed = 11;
    servers = 24;
    vms = 60;
    as_count = 3;
    as_capacity = 4;
    queue_depth = 12;
    ttl = Sim.Time.sec 5;
    rate_per_s = 8.0;
    duration = Sim.Time.sec 4;
    drain = Sim.Time.sec 6;
    churn_period = Sim.Time.ms 400;
    hot_vms = 12;
  }

let pinned_monitor =
  Some
    {
      Fleet.Monitor.default_config with
      Fleet.Monitor.tick = Sim.Time.ms 200;
      budget = Sim.Time.sec 2;
      recheck_budget = Sim.Time.ms 500;
      lead = Sim.Time.ms 600;
      storms =
        [
          Fleet.Monitor.Rack_compromise { at = Sim.Time.sec 1; cluster = 1 };
          Fleet.Monitor.Image_cve
            { at = Sim.Time.sec 2; property = Property.Runtime_integrity };
          Fleet.Monitor.Migration_wave { at = Sim.Time.ms 2500; count = 30 };
        ];
    }

(* One cluster slot at 20 req/s, so jobs queue and the 20 ms window
   gathers batches; checkpoints every 500 ms; one cluster per backend. *)
let pinned_audited_batched =
  {
    pinned_base with
    Fleet.Driver.as_capacity = 1;
    rate_per_s = 20.0;
    audit_checkpoint = Sim.Time.ms 500;
    batch_max = 4;
    batch_window = Sim.Time.ms 20;
    backends = [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |];
  }

let memo_totals (r : Fleet.Driver.result) =
  let hits, misses =
    Array.fold_left (fun (h, m) (h', m') -> (h + h', m + m')) (0, 0) r.Fleet.Driver.verify_memo
  in
  Printf.sprintf "%d,%d" hits misses

let pinned_run config ~fingerprint ~memo ~exercised () =
  let r1 = Fleet.Driver.run { config with Fleet.Driver.domains = 1 } in
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true (ok r1)) exercised;
  Alcotest.(check string) "fingerprint at domains = 1" fingerprint (Fleet.Driver.fingerprint r1);
  Alcotest.(check string) "verify-memo hits,misses at domains = 1" memo (memo_totals r1);
  let r2 = Fleet.Driver.run { config with Fleet.Driver.domains = 2 } in
  Alcotest.(check string) "fingerprint at domains = 2" fingerprint (Fleet.Driver.fingerprint r2)

let storms_hit (r : Fleet.Driver.result) =
  List.length r.Fleet.Driver.mon_storms = 3
  && List.for_all (fun o -> o.Fleet.Driver.affected > 0) r.Fleet.Driver.mon_storms

let three_backends_served (r : Fleet.Driver.result) =
  List.length r.Fleet.Driver.served_by_backend = 3
  && List.for_all (fun (_, n) -> n > 0) r.Fleet.Driver.served_by_backend

let test_pinned_monitored =
  pinned_run
    { pinned_base with Fleet.Driver.monitor = pinned_monitor }
    ~fingerprint:"b666181edbb862f49a308e113c7954e31af523b5e84d1352462dcce7e10e428f" ~memo:"0,0"
    ~exercised:
      [
        ("all three storms hit VMs", storms_hit);
        ("churn migrated VMs", fun r -> r.Fleet.Driver.migrations > 0);
        ("cache hits", fun r -> r.Fleet.Driver.cache_hits > 0);
        ("probes deduplicated", fun r -> r.Fleet.Driver.mon_dedups > 0);
      ]

let test_pinned_audited_batched =
  pinned_run pinned_audited_batched
    ~fingerprint:"87adb989e98cc16098c670bd51bc407cf3719980c00bf65c3e5f4ba95ff9e0e0" ~memo:"180,60"
    ~exercised:
      [
        ("batched rounds", fun r -> r.Fleet.Driver.batches > 0);
        ("checkpoints", fun r -> r.Fleet.Driver.audit_checkpoints > 0);
        ("auditor proofs", fun r -> r.Fleet.Driver.audit_proofs > 0);
        ("every backend served", three_backends_served);
      ]

let test_pinned_everything =
  pinned_run
    { pinned_audited_batched with Fleet.Driver.monitor = pinned_monitor }
    ~fingerprint:"fca76ea8a1bdafa3da784a0e1f6c62ed9ccdba87111394970e46fd6bd81f4f0d" ~memo:"180,60"
    ~exercised:
      [
        ("all three storms hit VMs", storms_hit);
        ("batched rounds", fun r -> r.Fleet.Driver.batches > 0);
        ("checkpoints", fun r -> r.Fleet.Driver.audit_checkpoints > 0);
        ("every backend served", three_backends_served);
      ]

(* --- One shard through its own interface -------------------------------------- *)

(* The lone shard of a one-AS fleet, created and stepped epoch by epoch
   the way the driver does it, must reproduce Driver.run's tallies and
   trace digest for the same config. *)
let test_lone_shard_matches_driver () =
  let config = { pinned_base with Fleet.Driver.as_count = 1; monitor = pinned_monitor } in
  let topology =
    Fleet.Topology.make ~seed:config.seed ~servers:config.servers ~vms:config.vms ~as_count:1
  in
  (* the driver's root stream *)
  let root = Sim.Prng.create (config.Fleet.Driver.seed lxor 0x464c45) in
  let shard = Fleet.Shard.create config topology ~root ~audit_key:None 0 in
  let horizon = config.duration + config.drain in
  let t = ref 0 and epochs = ref 0 in
  while !t < horizon || Fleet.Shard.pending shard > 0 do
    t := !t + config.epoch;
    incr epochs;
    Alcotest.(check int) "a lone shard sends nothing" 0
      (List.length (Fleet.Shard.advance shard ~until:!t))
  done;
  let s = Fleet.Shard.result shard in
  let r = Fleet.Driver.run config in
  Alcotest.(check bool) "the run did work" true (r.Fleet.Driver.served > 0 && r.migrations > 0);
  Alcotest.(check int) "epochs" r.Fleet.Driver.epochs !epochs;
  Alcotest.(check string) "trace digest" r.Fleet.Driver.trace_digest
    (Crypto.Hexs.encode (Crypto.Sha256.digest s.Fleet.Shard.trace));
  Alcotest.(check int) "offered" r.Fleet.Driver.offered (Fleet.Metrics.offered s.metrics);
  Alcotest.(check int) "served" r.Fleet.Driver.served (Fleet.Metrics.served s.metrics);
  Alcotest.(check (list (pair string int))) "served by backend"
    r.Fleet.Driver.served_by_backend [ ("classic", s.served) ];
  Alcotest.(check int) "migrations" r.Fleet.Driver.migrations s.migrations;
  Alcotest.(check int) "invalidations" r.Fleet.Driver.invalidations s.invalidations;
  Alcotest.(check int) "max queue depth" r.Fleet.Driver.max_queue_depth s.max_queue_depth;
  Alcotest.(check (float 0.0)) "mean queue depth" r.Fleet.Driver.mean_queue_depth
    s.mean_queue_depth;
  Alcotest.(check int) "monitor entries" r.Fleet.Driver.mon_entries (List.length s.mon_vids);
  Alcotest.(check (list int)) "storm tallies"
    (List.map (fun o -> o.Fleet.Driver.affected) r.Fleet.Driver.mon_storms)
    (Array.to_list s.storm_affected)

(* --- Sim.Stats additions ---------------------------------------------------- *)

let test_reservoir_exact_mode () =
  let r = Sim.Stats.Reservoir.create ~cap:200 ~seed:1 () in
  List.iter (Sim.Stats.Reservoir.add r) (List.init 100 (fun i -> float_of_int (i + 1)));
  Alcotest.(check bool) "still exact" true (Sim.Stats.Reservoir.exact r);
  Alcotest.(check int) "n" 100 (Sim.Stats.Reservoir.n r);
  Alcotest.(check (float 0.001)) "p50" 50.0 (Sim.Stats.Reservoir.percentile r 50.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (Sim.Stats.Reservoir.percentile r 99.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Sim.Stats.Reservoir.mean r);
  Alcotest.(check (float 0.001)) "min" 1.0 (Sim.Stats.Reservoir.min r);
  Alcotest.(check (float 0.001)) "max" 100.0 (Sim.Stats.Reservoir.max r);
  (* An add after a percentile query must invalidate the cached sort: a
     new minimum shifts every rank. *)
  Sim.Stats.Reservoir.add r 0.0;
  Alcotest.(check bool) "matches list percentile" true
    (Sim.Stats.Reservoir.percentile r 75.0
    = Sim.Stats.percentile (0.0 :: List.init 100 (fun i -> float_of_int (i + 1))) 75.0)

let test_reservoir_merge () =
  (* Exact merge when everything fits in the accumulator's cap. *)
  let a = Sim.Stats.Reservoir.create ~cap:400 ~seed:1 () in
  let b = Sim.Stats.Reservoir.create ~cap:400 ~seed:2 () in
  List.iter (Sim.Stats.Reservoir.add a) (List.init 100 (fun i -> float_of_int (i + 1)));
  List.iter (Sim.Stats.Reservoir.add b) (List.init 100 (fun i -> float_of_int (i + 101)));
  Sim.Stats.Reservoir.merge_into a b;
  Alcotest.(check int) "merged count" 200 (Sim.Stats.Reservoir.n a);
  Alcotest.(check bool) "merge of exact fits stays exact" true (Sim.Stats.Reservoir.exact a);
  Alcotest.(check (float 0.001)) "merged p50" 100.0 (Sim.Stats.Reservoir.percentile a 50.0);
  Alcotest.(check (float 0.001)) "merged max" 200.0 (Sim.Stats.Reservoir.max a);
  Alcotest.(check int) "source unchanged" 100 (Sim.Stats.Reservoir.n b);
  (* Subsampled merge: count/sum/extrema stay exact, retention is bounded,
     and the whole procedure is deterministic in the accumulator's seed. *)
  let merged seed =
    let acc = Sim.Stats.Reservoir.create ~cap:64 ~seed () in
    for shard = 0 to 3 do
      let r = Sim.Stats.Reservoir.create ~cap:64 ~seed:(10 + shard) () in
      for i = 1 to 1000 do
        Sim.Stats.Reservoir.add r (float_of_int ((shard * 1000) + i))
      done;
      Sim.Stats.Reservoir.merge_into acc r
    done;
    acc
  in
  let acc = merged 5 in
  Alcotest.(check int) "subsampled count exact" 4000 (Sim.Stats.Reservoir.n acc);
  Alcotest.(check bool) "retention bounded" true (Sim.Stats.Reservoir.retained acc <= 64);
  Alcotest.(check bool) "no longer exact" false (Sim.Stats.Reservoir.exact acc);
  Alcotest.(check (float 0.001)) "mean exact" 2000.5 (Sim.Stats.Reservoir.mean acc);
  Alcotest.(check (float 0.001)) "min exact" 1.0 (Sim.Stats.Reservoir.min acc);
  Alcotest.(check (float 0.001)) "max exact" 4000.0 (Sim.Stats.Reservoir.max acc);
  let p50 = Sim.Stats.Reservoir.percentile acc 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 estimate in range (got %.0f)" p50)
    true
    (p50 > 1000.0 && p50 < 3000.0);
  let acc' = merged 5 in
  Alcotest.(check (float 0.0)) "merge deterministic" p50
    (Sim.Stats.Reservoir.percentile acc' 50.0)

let test_gauge_time_weighted () =
  let g = Sim.Stats.Gauge.create () in
  Sim.Stats.Gauge.set g ~now:0.0 2;
  Sim.Stats.Gauge.set g ~now:10.0 6;
  (* 2 for 10 s, then 6 for 10 s -> mean 4. *)
  Alcotest.(check (float 0.001)) "time-weighted mean" 4.0
    (Sim.Stats.Gauge.time_weighted_mean g ~now:20.0);
  Alcotest.(check int) "peak" 6 (Sim.Stats.Gauge.peak g)

(* --- Json emitter ----------------------------------------------------------- *)

let test_json_emitter () =
  let j =
    Experiments.Json.(
      Obj
        [
          ("s", Str "a\"b\n");
          ("i", Int 42);
          ("f", Float 1.5);
          ("nan", Float nan);
          ("l", List [ Bool true; Null ]);
        ])
  in
  Alcotest.(check string) "compact form"
    "{\"s\":\"a\\\"b\\n\",\"i\":42,\"f\":1.5,\"nan\":null,\"l\":[true,null]}"
    (Experiments.Json.to_string ~indent:0 j)

let test_json_write_missing_dir () =
  match
    Experiments.Json.write_file_result "/nonexistent-dir-cloudmonatt/out.json"
      Experiments.Json.Null
  with
  | Error msg -> Alcotest.(check bool) "message is non-empty" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "writing into a missing directory must fail"

let () =
  Alcotest.run "fleet"
    [
      ( "pqueue",
        [
          Alcotest.test_case "priority order" `Quick test_pqueue_priority_order;
          Alcotest.test_case "sheds lowest first" `Quick test_pqueue_sheds_lowest_first;
        ] );
      ( "verdict-cache",
        [
          Alcotest.test_case "ttl and expiry" `Quick test_cache_ttl_and_expiry;
          Alcotest.test_case "never stores unhealthy" `Quick test_cache_never_stores_unhealthy;
          Alcotest.test_case "disabled by default" `Quick test_cache_disabled_by_default;
          Alcotest.test_case "invalidate vm" `Quick test_cache_invalidate_vm;
        ] );
      ( "controller-cache",
        [
          Alcotest.test_case "cached reattestation cheaper" `Quick
            test_controller_cached_reattestation_cheaper;
          Alcotest.test_case "lifecycle invalidates" `Quick test_controller_lifecycle_invalidates;
          Alcotest.test_case "migrate then attest is fresh" `Quick
            test_controller_migrate_then_attest_is_fresh;
          Alcotest.test_case "suspend/resume race not stale" `Quick
            test_controller_suspend_resume_race_not_stale;
          Alcotest.test_case "batched duplicates consistent" `Quick
            test_controller_batched_duplicates_consistent;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "coalesces concurrent requests" `Quick
            test_cluster_coalesces_concurrent_requests;
          Alcotest.test_case "shed verdicts" `Quick test_cluster_shed_verdict;
          Alcotest.test_case "batch window flush" `Quick test_cluster_batch_window_flush;
          Alcotest.test_case "full batch skips window" `Quick
            test_cluster_full_batch_skips_window;
          Alcotest.test_case "customer flushes window" `Quick
            test_cluster_customer_flushes_window;
        ] );
      ( "driver",
        [
          Alcotest.test_case "deterministic replay" `Quick test_driver_deterministic_replay;
          Alcotest.test_case "empty backends rejected" `Quick
            test_driver_rejects_empty_backends;
          Alcotest.test_case "domains byte-identical" `Quick test_driver_domains_byte_identical;
          Alcotest.test_case "epoch-barrier migration invalidates" `Quick
            test_epoch_barrier_migration_invalidates;
          Alcotest.test_case "sharding raises throughput" `Quick
            test_driver_sharding_raises_throughput;
          Alcotest.test_case "cache ttl improves latency" `Quick
            test_driver_cache_ttl_improves_latency;
          Alcotest.test_case "batching raises saturated throughput" `Quick
            test_driver_batching_raises_saturated_throughput;
          Alcotest.test_case "batch one is inert" `Quick test_driver_batch_one_is_inert;
          Alcotest.test_case "shed breakdown sums" `Quick test_driver_shed_breakdown_sums;
          Alcotest.test_case "batch-1 reproduces fleet" `Quick
            test_batch_exp_batch1_reproduces_fleet;
        ] );
      ( "fleet-pinned",
        [
          Alcotest.test_case "monitor, storms, churn, cache" `Quick test_pinned_monitored;
          Alcotest.test_case "audit, batching, three backends" `Quick
            test_pinned_audited_batched;
          Alcotest.test_case "all paths together" `Quick test_pinned_everything;
        ] );
      ( "shard",
        [
          Alcotest.test_case "lone shard matches Driver.run" `Quick
            test_lone_shard_matches_driver;
        ] );
      ( "stats",
        [
          Alcotest.test_case "reservoir exact mode" `Quick test_reservoir_exact_mode;
          Alcotest.test_case "reservoir merge" `Quick test_reservoir_merge;
          Alcotest.test_case "gauge time-weighted" `Quick test_gauge_time_weighted;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter" `Quick test_json_emitter;
          Alcotest.test_case "write into missing dir fails" `Quick test_json_write_missing_dir;
        ] );
    ]
