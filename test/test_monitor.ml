(* Continuous monitoring: Fleet.Monitor unit semantics, the driver-level
   invariants the scheduler must keep (off-path byte-identity against the
   committed BENCH_fleet fingerprint, sharded determinism with monitoring
   on, probe conservation, storm detection, exactly-once rescheduling
   under churn), and QCheck model tests backfilling the two structures
   the scheduler leans on: Fleet.Pqueue and Core.Verdict_cache. *)

let qtest = QCheck_alcotest.to_alcotest
let ms = Sim.Time.ms
let sec = Sim.Time.sec

(* ---------------------------------------------------------------- *)
(* Fleet.Monitor unit semantics                                      *)
(* ---------------------------------------------------------------- *)

let mcfg =
  {
    Fleet.Monitor.default_config with
    Fleet.Monitor.tick = ms 100;
    budget = sec 1;
    recheck_budget = ms 300;
    lead = ms 200;
  }

let no_cache ~vid:_ ~prop:_ = None
let vids_of probes = List.map (fun p -> p.Fleet.Monitor.vid) probes

let one_probe (r : Fleet.Monitor.tick_result) =
  match r.Fleet.Monitor.probes with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one probe, got %d" (List.length ps)

let test_add_remove () =
  let m = Fleet.Monitor.create mcfg in
  Alcotest.(check bool)
    "fresh add" true
    (Fleet.Monitor.add m ~vid:"vm-1" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 500));
  Alcotest.(check bool)
    "re-add is a replace" false
    (Fleet.Monitor.add m ~vid:"vm-1" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 500));
  Alcotest.(check int) "size" 1 (Fleet.Monitor.size m);
  Alcotest.(check bool) "remove present" true (Fleet.Monitor.remove m ~vid:"vm-1");
  Alcotest.(check bool) "remove absent" false (Fleet.Monitor.remove m ~vid:"vm-1");
  Alcotest.(check int) "empty" 0 (Fleet.Monitor.size m)

let test_tick_order () =
  let m = Fleet.Monitor.create mcfg in
  (* Insertion order b, a, c — probes must still come out in fleet-index
     order, the scheduler's determinism anchor. *)
  ignore
    (Fleet.Monitor.add m ~vid:"vm-b" ~idx:1 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 150)
      : bool);
  ignore
    (Fleet.Monitor.add m ~vid:"vm-c" ~idx:2 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(sec 10)
      : bool);
  let r = Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache in
  Alcotest.(check (list string))
    "due probes in fleet-index order" [ "vm-a"; "vm-b" ]
    (vids_of r.Fleet.Monitor.probes);
  Alcotest.(check int) "total tracks the whole set" 3 r.Fleet.Monitor.total;
  Alcotest.(check int) "nothing fresh yet" 0 r.Fleet.Monitor.fresh;
  (* Both due entries are now in flight: a second tick at the same time
     must not double-probe them. *)
  let r2 = Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache in
  Alcotest.(check (list string)) "inflight not re-probed" []
    (vids_of r2.Fleet.Monitor.probes)

let test_complete_rearms () =
  let m = Fleet.Monitor.create mcfg in
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  let p = one_probe (Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache) in
  Fleet.Monitor.complete m p ~now:(ms 50) ~served:true;
  (* Served: fresh for a budget, rearmed one budget out. *)
  let r = Fleet.Monitor.tick m ~now:(ms 50) ~fresh_until:no_cache in
  Alcotest.(check int) "fresh after serve" 1 r.Fleet.Monitor.fresh;
  Alcotest.(check (list string)) "not due again yet" []
    (vids_of r.Fleet.Monitor.probes);
  (* Due again when the new deadline (50ms + budget) enters the lead
     window. *)
  let r2 = Fleet.Monitor.tick m ~now:(ms 950) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "due one budget later" [ "vm-a" ]
    (vids_of r2.Fleet.Monitor.probes)

let test_shed_retries () =
  let m = Fleet.Monitor.create mcfg in
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  let p = one_probe (Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache) in
  Fleet.Monitor.complete m p ~now:(ms 50) ~served:false;
  (* Shed: the deadline stays armed, the very next tick retries. *)
  let r = Fleet.Monitor.tick m ~now:(ms 100) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "shed probe retried" [ "vm-a" ]
    (vids_of r.Fleet.Monitor.probes);
  Alcotest.(check int) "shed left nothing fresh" 0 r.Fleet.Monitor.fresh;
  let p2 = one_probe r in
  Alcotest.(check int)
    "retry keeps the original deadline" (ms 100)
    p2.Fleet.Monitor.deadline

let test_cache_dedup () =
  let m = Fleet.Monitor.create mcfg in
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  let cached ~vid:_ ~prop:_ = Some (ms 700) in
  let r = Fleet.Monitor.tick m ~now:0 ~fresh_until:cached in
  Alcotest.(check (list string)) "cached verdict dedups" [ "vm-a" ]
    r.Fleet.Monitor.dedups;
  Alcotest.(check (list string)) "no probe for a fresh VM" []
    (vids_of r.Fleet.Monitor.probes);
  Alcotest.(check int) "dedup counts the VM fresh" 1 r.Fleet.Monitor.fresh;
  (* The deadline moved to where the cached verdict goes stale: not due
     at 400ms (700 > 400 + lead is false... 700 <= 600 is false). *)
  let r2 = Fleet.Monitor.tick m ~now:(ms 400) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "deadline pushed to cache expiry" []
    (vids_of r2.Fleet.Monitor.probes);
  (* Once the cache no longer covers it, the probe goes out. *)
  let r3 = Fleet.Monitor.tick m ~now:(ms 600) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "probe once cache expires" [ "vm-a" ]
    (vids_of r3.Fleet.Monitor.probes)

let test_stale_token () =
  let m = Fleet.Monitor.create mcfg in
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  let p = one_probe (Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache) in
  (* The VM migrated away and back: remove + re-add mint a new stamp. *)
  ignore (Fleet.Monitor.remove m ~vid:"vm-a" : bool);
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Recheck
       ~deadline:(sec 10)
      : bool);
  Fleet.Monitor.complete m p ~now:(ms 50) ~served:true;
  (* The stale completion must not mark the new incarnation fresh. *)
  let r = Fleet.Monitor.tick m ~now:(ms 60) ~fresh_until:no_cache in
  Alcotest.(check int) "stale token ignored" 0 r.Fleet.Monitor.fresh

let test_force_all () =
  let m = Fleet.Monitor.create mcfg in
  ignore
    (Fleet.Monitor.add m ~vid:"vm-a" ~idx:0 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(ms 100)
      : bool);
  ignore
    (Fleet.Monitor.add m ~vid:"vm-b" ~idx:1 ~cls:Fleet.Pqueue.Periodic
       ~deadline:(sec 10)
      : bool);
  (* vm-a goes in flight; then a CVE storm forces everyone. *)
  let p = one_probe (Fleet.Monitor.tick m ~now:0 ~fresh_until:no_cache) in
  let forced =
    Fleet.Monitor.force_all m ~now:(ms 100) ~cls:Fleet.Pqueue.Recheck
      ~prop:Core.Property.Startup_integrity
  in
  Alcotest.(check (list string))
    "force_all returns every entry in index order" [ "vm-a"; "vm-b" ] forced;
  (* vm-b was idle: it is due immediately with the forced class/property. *)
  let r = Fleet.Monitor.tick m ~now:(ms 300) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "idle entry rechecks promptly" [ "vm-b" ]
    (vids_of r.Fleet.Monitor.probes);
  let pb = one_probe r in
  Alcotest.(check bool)
    "forced class" true
    (pb.Fleet.Monitor.cls = Fleet.Pqueue.Recheck);
  Alcotest.(check bool)
    "forced property" true
    (pb.Fleet.Monitor.prop = Core.Property.Startup_integrity);
  (* vm-a's force was pending behind the in-flight probe: applying at
     completion time rearms it with the recheck budget, and the served
     verdict must NOT mark it fresh (it is the suspect verdict). *)
  Fleet.Monitor.complete m p ~now:(ms 400) ~served:true;
  let r2 = Fleet.Monitor.tick m ~now:(ms 600) ~fresh_until:no_cache in
  Alcotest.(check (list string)) "pending force applied at completion"
    [ "vm-a" ]
    (vids_of r2.Fleet.Monitor.probes);
  let pa = one_probe r2 in
  Alcotest.(check bool)
    "pending force carries the class" true
    (pa.Fleet.Monitor.cls = Fleet.Pqueue.Recheck)

let test_due_storms () =
  let storms =
    [
      Fleet.Monitor.Rack_compromise { at = ms 100; cluster = 1 };
      Fleet.Monitor.Image_cve
        { at = ms 500; property = Core.Property.Runtime_integrity };
    ]
  in
  let m = Fleet.Monitor.create { mcfg with Fleet.Monitor.storms } in
  Alcotest.(check int) "nothing due at t=0" 0
    (List.length (Fleet.Monitor.due_storms m ~now:0));
  let due = Fleet.Monitor.due_storms m ~now:(ms 200) in
  Alcotest.(check (list int)) "first storm due, index attached" [ 0 ]
    (List.map fst due);
  Alcotest.(check (list int)) "second storm due later" [ 1 ]
    (List.map fst (Fleet.Monitor.due_storms m ~now:(sec 1)));
  Alcotest.(check int) "storms fire once" 0
    (List.length (Fleet.Monitor.due_storms m ~now:(sec 2)))

(* ---------------------------------------------------------------- *)
(* Driver integration                                                 *)
(* ---------------------------------------------------------------- *)

(* Small but honest fleet: 3 AS clusters, churn on, cache on, fault-free
   measurements so freshness and detection are attributable. *)
let fleet_base =
  {
    Fleet.Driver.default_config with
    Fleet.Driver.seed = 11;
    servers = 24;
    vms = 60;
    as_count = 3;
    as_capacity = 4;
    queue_depth = 12;
    ttl = sec 5;
    rate_per_s = 8.0;
    duration = sec 4;
    drain = sec 6;
    unhealthy_p = 0.0;
    churn_period = ms 400;
    hot_vms = 12;
    epoch = ms 50;
  }

let fleet_mon ?(storms = []) () =
  {
    Fleet.Monitor.default_config with
    Fleet.Monitor.tick = ms 200;
    budget = sec 2;
    recheck_budget = ms 500;
    lead = ms 600;
    storms;
  }

let monitored ?storms config =
  { config with Fleet.Driver.monitor = Some (fleet_mon ?storms ()) }

(* The committed BENCH_fleet.json scenario: an unmonitored run must keep
   producing the PR-9 fingerprint byte for byte — the monitor must be
   invisible when off (same prng draws, same trace, same hash). *)
let test_off_path_pinned () =
  let config, _ = Experiments.Fleet_exp.sharded_scenario ~seed:2015 `Default in
  let r = Fleet.Driver.run { config with Fleet.Driver.domains = 1 } in
  Alcotest.(check string)
    "trace digest matches committed BENCH_fleet.json"
    "2f2082eb061571e544b283f0fa169f44cc9ab03023a5ae1f8bb9f784682b37d2"
    r.Fleet.Driver.trace_digest;
  Alcotest.(check string)
    "fingerprint matches committed BENCH_fleet.json"
    "2294c57f77224268f84657ddb47b021b3803fca064eba27934219bb9343ca2a7"
    (Fleet.Driver.fingerprint r)

let test_off_fields_zero () =
  let r = Fleet.Driver.run fleet_base in
  Alcotest.(check int) "no probes" 0 r.Fleet.Driver.mon_scheduled;
  Alcotest.(check int) "no serves" 0 r.Fleet.Driver.mon_served;
  Alcotest.(check int) "no ticks" 0 r.Fleet.Driver.mon_ticks;
  Alcotest.(check int) "no entries" 0 r.Fleet.Driver.mon_entries;
  Alcotest.(check bool) "no storm outcomes" true (r.Fleet.Driver.mon_storms = []);
  Alcotest.(check (float 0.0)) "fresh series empty" 0.0 r.Fleet.Driver.mon_fresh_mean

let storm_list =
  [
    Fleet.Monitor.Rack_compromise { at = sec 1; cluster = 1 };
    Fleet.Monitor.Image_cve
      { at = sec 2; property = Core.Property.Runtime_integrity };
    Fleet.Monitor.Migration_wave { at = ms 2500; count = 30 };
  ]

let test_domains_identical () =
  let config = monitored ~storms:storm_list fleet_base in
  let r1 = Fleet.Driver.run { config with Fleet.Driver.domains = 1 } in
  let r2 = Fleet.Driver.run { config with Fleet.Driver.domains = 2 } in
  let r3 = Fleet.Driver.run { config with Fleet.Driver.domains = 3 } in
  Alcotest.(check string)
    "monitored fingerprint: domains 1 = 2"
    (Fleet.Driver.fingerprint r1)
    (Fleet.Driver.fingerprint r2);
  Alcotest.(check string)
    "monitored fingerprint: domains 1 = 3"
    (Fleet.Driver.fingerprint r1)
    (Fleet.Driver.fingerprint r3)

let test_deterministic () =
  let config = monitored ~storms:storm_list fleet_base in
  let r1 = Fleet.Driver.run config in
  let r2 = Fleet.Driver.run config in
  Alcotest.(check bool) "equal configs, equal monitored results" true (r1 = r2)

let test_conservation () =
  (* Starve the clusters so probes actually shed, then check the ledger:
     every scheduled probe lands in exactly one bucket. *)
  let config =
    monitored
      {
        fleet_base with
        Fleet.Driver.as_capacity = 1;
        queue_depth = 3;
        rate_per_s = 20.0;
      }
  in
  let r = Fleet.Driver.run config in
  Alcotest.(check bool) "probes were scheduled" true (r.Fleet.Driver.mon_scheduled > 0);
  Alcotest.(check int) "scheduled = served + missed + shed"
    r.Fleet.Driver.mon_scheduled
    (r.Fleet.Driver.mon_served + r.Fleet.Driver.mon_missed_periodic
   + r.Fleet.Driver.mon_missed_recheck + r.Fleet.Driver.mon_shed)

let test_freshness_slo () =
  let r = Fleet.Driver.run (monitored fleet_base) in
  Alcotest.(check bool) "scheduler ticked" true (r.Fleet.Driver.mon_ticks >= 15);
  Alcotest.(check bool) "every VM tracked" true
    (r.Fleet.Driver.mon_entries = fleet_base.Fleet.Driver.vms);
  Alcotest.(check bool) "fresh fractions are fractions" true
    (r.Fleet.Driver.mon_fresh_min >= 0.0
    && r.Fleet.Driver.mon_fresh_min <= r.Fleet.Driver.mon_fresh_mean
    && r.Fleet.Driver.mon_fresh_mean <= 1.0);
  (* By the end of a fault-free run the steady-state cycle keeps most of
     the fleet inside its freshness budget. *)
  Alcotest.(check bool) "most of the fleet ends fresh" true
    (r.Fleet.Driver.mon_fresh_final >= 0.5)

let test_cache_dedup_driver () =
  (* TTL (5s) comfortably covers the budget (2s): each probe's own cached
     verdict answers the early due-window checks of the next cycle. *)
  let r = Fleet.Driver.run (monitored fleet_base) in
  Alcotest.(check bool) "cached verdicts deduplicated probes" true
    (r.Fleet.Driver.mon_dedups > 0)

let storm_outcome r name =
  match
    List.find_opt
      (fun o -> String.equal o.Fleet.Driver.storm name)
      r.Fleet.Driver.mon_storms
  with
  | Some o -> o
  | None -> Alcotest.failf "no %s outcome" name

let test_rack_storm_detected () =
  let storms = [ Fleet.Monitor.Rack_compromise { at = sec 1; cluster = 1 } ] in
  let r = Fleet.Driver.run (monitored ~storms fleet_base) in
  let o = storm_outcome r "rack-compromise" in
  Alcotest.(check bool) "storm hit some VMs" true (o.Fleet.Driver.affected > 0);
  (match o.Fleet.Driver.detected_at with
  | None -> Alcotest.fail "planted compromise never detected"
  | Some t ->
      Alcotest.(check bool) "detected after the storm" true (t >= sec 1);
      (* The ISSUE's SLO: within two scheduler periods (freshness
         budgets) of the plant. *)
      Alcotest.(check bool) "detected within two budgets" true
        (t - sec 1 <= 2 * sec 2));
  Alcotest.(check bool) "compromised measurements surfaced" true
    (r.Fleet.Driver.unhealthy > 0)

let test_cve_storm_forces_all () =
  let storms =
    [
      Fleet.Monitor.Image_cve
        { at = sec 1; property = Core.Property.Runtime_integrity };
    ]
  in
  let with_storm = Fleet.Driver.run (monitored ~storms fleet_base) in
  let without = Fleet.Driver.run (monitored fleet_base) in
  let o = storm_outcome with_storm "image-cve" in
  Alcotest.(check int) "every tracked VM forced"
    fleet_base.Fleet.Driver.vms o.Fleet.Driver.affected;
  Alcotest.(check bool) "no detection timestamp for a recheck storm" true
    (o.Fleet.Driver.detected_at = None);
  Alcotest.(check bool) "recheck storm scheduled extra probes" true
    (with_storm.Fleet.Driver.mon_scheduled > without.Fleet.Driver.mon_scheduled)

let test_migration_wave () =
  let storms = [ Fleet.Monitor.Migration_wave { at = sec 1; count = 30 } ] in
  let with_storm = Fleet.Driver.run (monitored ~storms fleet_base) in
  let without = Fleet.Driver.run (monitored fleet_base) in
  let o = storm_outcome with_storm "migration-wave" in
  Alcotest.(check bool) "wave migrated some VMs" true (o.Fleet.Driver.affected > 0);
  (* Periodic churn is time-driven, so the wave's extra migrations add
     exactly its affected count on top of the baseline run's. *)
  Alcotest.(check int) "wave adds exactly its affected count"
    (without.Fleet.Driver.migrations + o.Fleet.Driver.affected)
    with_storm.Fleet.Driver.migrations

(* The latent-bug class this PR regression-tests: a VM migrating
   mid-epoch must be rescheduled on its new serving shard exactly once —
   no double-schedule, no orphan.  Census: after a churn-heavy monitored
   run every VM is tracked exactly once across all shards. *)
let test_churn_exactly_once () =
  let config =
    monitored
      {
        fleet_base with
        Fleet.Driver.churn_period = ms 100;
        as_count = 4;
        seed = 23;
      }
  in
  let r = Fleet.Driver.run config in
  Alcotest.(check bool) "churn actually happened" true
    (r.Fleet.Driver.migrations > 10);
  Alcotest.(check int) "every VM tracked exactly once"
    config.Fleet.Driver.vms r.Fleet.Driver.mon_entries;
  Alcotest.(check int) "no double-tracking events" 0
    r.Fleet.Driver.mon_entry_dups

(* ---------------------------------------------------------------- *)
(* QCheck model: Fleet.Pqueue vs a sorted-list oracle                 *)
(* ---------------------------------------------------------------- *)

(* Oracle state: (rank, insertion seq, payload) triples, no ordering
   invariant — the ops recompute everything from scratch. *)
type mq = { depth : int; mutable items : (int * int * int) list; mutable seq : int }

let m_create depth = { depth; items = []; seq = 0 }

let m_push m r v =
  if List.length m.items < m.depth then begin
    m.items <- m.items @ [ (r, m.seq, v) ];
    m.seq <- m.seq + 1;
    `Enqueued
  end
  else
    let lower = List.filter (fun (r', _, _) -> r' > r) m.items in
    if lower = [] then `Rejected
    else begin
      (* Shed from the lowest class present (highest rank), oldest first. *)
      let worst = List.fold_left (fun acc (r', _, _) -> max acc r') (-1) lower in
      let victim =
        List.fold_left
          (fun acc ((r', s, _) as e) ->
            if r' <> worst then acc
            else
              match acc with
              | Some (_, s0, _) when s0 <= s -> acc
              | _ -> Some e)
          None m.items
      in
      match victim with
      | None -> assert false
      | Some ((vr, _, vv) as ve) ->
          m.items <- List.filter (fun e -> e <> ve) m.items;
          m.items <- m.items @ [ (r, m.seq, v) ];
          m.seq <- m.seq + 1;
          `Evicted (vr, vv)
    end

let m_pop m =
  let best =
    List.fold_left
      (fun acc ((r, s, _) as e) ->
        match acc with
        | Some (r0, s0, _) when (r0, s0) <= (r, s) -> acc
        | _ -> Some e)
      None m.items
  in
  match best with
  | None -> None
  | Some ((r, _, v) as e) ->
      m.items <- List.filter (fun x -> x <> e) m.items;
      Some (r, v)

let prio_of_rank = function
  | 0 -> Fleet.Pqueue.Customer
  | 1 -> Fleet.Pqueue.Periodic
  | _ -> Fleet.Pqueue.Recheck

let pqueue_ops_gen =
  QCheck.Gen.(
    pair (int_range 1 5)
      (list_size (int_range 0 80)
         (frequency
            [
              ( 3,
                map2 (fun p v -> `Push (p, v)) (int_range 0 2) (int_range 0 999) );
              (2, return `Pop);
            ])))

let pqueue_model_test =
  QCheck.Test.make ~name:"pqueue agrees with sorted-list oracle" ~count:300
    (QCheck.make pqueue_ops_gen) (fun (depth, ops) ->
      let q = Fleet.Pqueue.create ~depth in
      let m = m_create depth in
      List.for_all
        (fun op ->
          match op with
          | `Push (pi, v) ->
              let pr = prio_of_rank pi in
              let got = Fleet.Pqueue.push q pr v in
              let want = m_push m (Fleet.Pqueue.rank pr) v in
              (match (got, want) with
              | Fleet.Pqueue.Enqueued, `Enqueued -> true
              | Fleet.Pqueue.Rejected, `Rejected -> true
              | Fleet.Pqueue.Evicted (p', v'), `Evicted (r', v'') ->
                  Fleet.Pqueue.rank p' = r' && v' = v''
              | _ -> false)
              && Fleet.Pqueue.length q = List.length m.items
          | `Pop -> (
              match (Fleet.Pqueue.pop q, m_pop m) with
              | None, None -> true
              | Some (p, v), Some (r, v') -> Fleet.Pqueue.rank p = r && v = v'
              | _ -> false))
        ops
      && List.for_all
           (fun pr ->
             Fleet.Pqueue.length_of q pr
             = List.length
                 (List.filter (fun (r, _, _) -> r = Fleet.Pqueue.rank pr) m.items))
           Fleet.Pqueue.all_priorities)

(* ---------------------------------------------------------------- *)
(* QCheck model: Core.Verdict_cache TTL/invalidation lifecycle        *)
(* ---------------------------------------------------------------- *)

let cache_ops_gen =
  QCheck.Gen.(
    pair
      (oneofl [ 0; ms 100; ms 250 ])
      (list_size (int_range 0 60)
         (frequency
            [
              ( 3,
                map3
                  (fun v p h -> `Store (v, p, h))
                  (int_range 0 2) (int_range 0 1) bool );
              (3, map2 (fun v p -> `Find (v, p)) (int_range 0 2) (int_range 0 1));
              (2, map (fun d -> `Advance d) (int_range 0 (ms 120)));
              (1, map (fun v -> `Inv_vm v) (int_range 0 2));
              ( 1,
                map2 (fun v p -> `Inv (v, p)) (int_range 0 2) (int_range 0 1) );
            ])))

let cache_model_test =
  QCheck.Test.make ~name:"verdict cache agrees with TTL model" ~count:300
    (QCheck.make cache_ops_gen) (fun (ttl, ops) ->
      let vid i = Printf.sprintf "vm-%d" i in
      let prop = function
        | 0 -> Core.Property.Runtime_integrity
        | _ -> Core.Property.Startup_integrity
      in
      let now = ref 0 in
      let c = Core.Verdict_cache.create ~ttl ~clock:(fun () -> !now) () in
      (* Model: key -> expiry time.  Expired entries linger until a find
         drops them, exactly like the lazy real cache. *)
      let model : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          match op with
          | `Advance d ->
              now := !now + d;
              true
          | `Store (v, p, healthy) ->
              let status =
                if healthy then Core.Report.Healthy
                else Core.Report.Compromised "model"
              in
              let report =
                {
                  Core.Report.vid = vid v;
                  property = prop p;
                  status;
                  evidence = "model";
                  produced_at = !now;
                }
              in
              let stored = Core.Verdict_cache.store c report in
              let should = ttl > 0 && healthy in
              if should then Hashtbl.replace model (v, p) (!now + ttl);
              stored = should
          | `Find (v, p) ->
              let got = Core.Verdict_cache.find c ~vid:(vid v) ~property:(prop p) in
              let want =
                ttl > 0
                &&
                match Hashtbl.find_opt model (v, p) with
                | Some e when e > !now -> true
                | Some _ ->
                    Hashtbl.remove model (v, p);
                    false
                | None -> false
              in
              Option.is_some got = want
          | `Inv (v, p) ->
              let got =
                Core.Verdict_cache.invalidate c ~vid:(vid v) ~property:(prop p)
              in
              let want = Hashtbl.mem model (v, p) in
              Hashtbl.remove model (v, p);
              got = want
          | `Inv_vm v ->
              let got = Core.Verdict_cache.invalidate_vm c ~vid:(vid v) in
              let mine =
                Hashtbl.fold
                  (fun (v', p) _ acc -> if v' = v then (v', p) :: acc else acc)
                  model []
              in
              List.iter (Hashtbl.remove model) mine;
              got = List.length mine)
        ops
      && Core.Verdict_cache.size c = Hashtbl.length model)

(* ---------------------------------------------------------------- *)

(* The bench experiment's own gate at smoke scale: the domain curve must
   fingerprint-coincide, the planted rack compromise must be detected
   within two re-attestation periods, and the fresh-SLO series must be
   nonzero — the same predicate CI turns into an exit status. *)
let test_exp_smoke_clean () =
  let r = Experiments.Monitor_exp.run ~seed:2015 ~scale:`Smoke () in
  Alcotest.(check bool) "identical across domains" true
    r.Experiments.Monitor_exp.sharded.Experiments.Monitor_exp.identical;
  Alcotest.(check bool) "clean" true (Experiments.Monitor_exp.clean r)

(* Two runs of the experiment must produce byte-identical artifacts once
   the host wall-clock fields are dropped. *)
let test_exp_json_deterministic () =
  let a = Experiments.Monitor_exp.run ~seed:7 ~scale:`Smoke () in
  let b = Experiments.Monitor_exp.run ~seed:7 ~scale:`Smoke () in
  Alcotest.(check string) "same artifact"
    (Experiments.Json.to_string (Experiments.Monitor_exp.to_json ~host:false a))
    (Experiments.Json.to_string (Experiments.Monitor_exp.to_json ~host:false b))

let () =
  Alcotest.run "monitor"
    [
      ( "scheduler",
        [
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "tick order and inflight" `Quick test_tick_order;
          Alcotest.test_case "serve rearms" `Quick test_complete_rearms;
          Alcotest.test_case "shed retries" `Quick test_shed_retries;
          Alcotest.test_case "cache dedup" `Quick test_cache_dedup;
          Alcotest.test_case "stale token" `Quick test_stale_token;
          Alcotest.test_case "force_all" `Quick test_force_all;
          Alcotest.test_case "due storms" `Quick test_due_storms;
        ] );
      ( "driver",
        [
          Alcotest.test_case "off: pinned fleet fingerprint" `Quick
            test_off_path_pinned;
          Alcotest.test_case "off: monitor fields zero" `Quick
            test_off_fields_zero;
          Alcotest.test_case "on: domains byte-identical" `Quick
            test_domains_identical;
          Alcotest.test_case "on: deterministic" `Quick test_deterministic;
          Alcotest.test_case "on: probe conservation" `Quick test_conservation;
          Alcotest.test_case "on: freshness SLO" `Quick test_freshness_slo;
          Alcotest.test_case "on: cache dedups probes" `Quick
            test_cache_dedup_driver;
          Alcotest.test_case "storm: rack compromise detected" `Quick
            test_rack_storm_detected;
          Alcotest.test_case "storm: image CVE forces all" `Quick
            test_cve_storm_forces_all;
          Alcotest.test_case "storm: migration wave" `Quick test_migration_wave;
          Alcotest.test_case "churn: exactly-once reschedule" `Quick
            test_churn_exactly_once;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke sweep clean" `Quick test_exp_smoke_clean;
          Alcotest.test_case "artifact deterministic" `Quick
            test_exp_json_deterministic;
        ] );
      ( "models",
        [ qtest pqueue_model_test; qtest cache_model_test ] );
    ]
