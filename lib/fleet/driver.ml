include Config

type storm_outcome = {
  storm : string;
  at : Sim.Time.t;
  affected : int;
  detected_at : Sim.Time.t option;
}

type result = {
  config : config;
  offered : int;
  served : int;
  shed_customer : int;
  shed_periodic : int;
  shed_recheck : int;
  coalesced : int;
  measurements : int;
  unhealthy : int;
  cache_hits : int;
  cache_hit_rate : float;
  invalidations : int;
  migrations : int;
  offered_rps : float;
  served_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_queue_depth : int;
  mean_queue_depth : float;
  batches : int;
  mean_batch_size : float;
  audit_appends : int;
  audit_checkpoints : int;
  audit_proofs : int;
  audit_equivocations : int;
  served_by_backend : (string * int) list;
      (** cluster-served requests per backend kind, for each kind the config
          places (cache hits never reach a cluster and are not attributed) *)
  epochs : int;
  verify_memo : (int * int) array;
      (** per-domain (hits, misses) of the RSA verify memo, slot order;
          excluded from {!fingerprint} (the split depends on [domains]) *)
  (* Continuous-monitoring results; all zero / empty with the monitor off
     (and only then excluded from the fingerprint). *)
  mon_scheduled : int;
  mon_served : int;
  mon_missed_periodic : int;
  mon_missed_recheck : int;
  mon_shed : int;
  mon_dedups : int;
  mon_ticks : int;
  mon_entries : int;
  mon_entry_dups : int;
  mon_fresh_min : float;
  mon_fresh_mean : float;
  mon_fresh_final : float;
  mon_storms : storm_outcome list;
  trace_digest : string;
}

let cold_attest_ms = Shard.cold_attest_ms
let cache_hit_ms = Shard.cache_hit_ms
let batch_attest_ms = Shard.batch_attest_ms
let audit_verdict_ms = Shard.audit_verdict_ms

(* Config -> shards -> epoch loop -> merge.

   Shards never read or write each other's state inside an epoch, so any
   assignment of shards to domains executes the same per-shard event
   sequences; the barrier sorts the union of outboxes by (send time, source
   shard, send seq) — a total order that is itself a pure function of the
   per-shard sequences — making the merged run reproducible bit-for-bit at
   any domain count. *)
let run config =
  if Array.length config.backends = 0 then
    invalid_arg "Fleet.Driver.run: config.backends is empty; give at least one backend kind";
  let topology =
    Topology.make ~seed:config.seed ~servers:config.servers ~vms:config.vms
      ~as_count:config.as_count
  in
  (* Every shard's five prng streams are split from this root on the main
     domain, before anything runs: [Array.init] applies [Shard.create] to
     0 .. n-1 in order, so the stream assignment is part of the
     configuration, not of the execution schedule. *)
  let root = Sim.Prng.create (config.seed lxor 0x464c45) in
  let audit_key =
    if config.audit_checkpoint <= 0 then None
    else
      Some
        (Crypto.Rsa.generate
           (Crypto.Drbg.create ~seed:("fleet-audit|" ^ string_of_int config.seed))
           ~bits:512)
          .Crypto.Rsa.secret
  in
  let shards =
    Array.init (Topology.as_count topology) (Shard.create config topology ~root ~audit_key)
  in
  let shard_count = Array.length shards in
  let horizon = config.duration + config.drain in
  (* Epoch-barrier loop.  Within an epoch every shard advances alone on its
     domain; at the barrier the main domain gathers the outboxes, imposes
     the (at, src, seq) total order, and delivers each message to its
     destination at the barrier time.  The loop keeps stepping past the
     arrival horizon until every queue is empty and no message is in
     flight, so offered = served + shed exactly. *)
  let epoch = max 1 config.epoch in
  let slots = max 1 (min config.domains shard_count) in
  let pool = Sim.Domain_pool.create ~slots in
  let epochs = ref 0 in
  let verify_memo = Array.make slots (0, 0) in
  Fun.protect
    ~finally:(fun () -> Sim.Domain_pool.shutdown pool)
    (fun () ->
      (* The RSA verify memo is domain-local (Domain.DLS); reset every
         slot's memo up front so the counters gathered after the run are
         attributable to this run alone, whatever ran on these domains
         before. *)
      Sim.Domain_pool.run pool (fun _slot -> Crypto.Rsa.Memo.clear (Crypto.Rsa.Memo.shared ()));
      let sent = Array.make slots [] in
      let t = ref Sim.Time.zero in
      while !t < horizon || Array.exists (fun sh -> Shard.pending sh > 0) shards do
        t := !t + epoch;
        incr epochs;
        Sim.Domain_pool.run pool (fun slot ->
            sent.(slot) <- [];
            Array.iteri
              (fun i sh ->
                if i mod slots = slot then
                  sent.(slot) <- List.rev_append (Shard.advance sh ~until:!t) sent.(slot))
              shards);
        List.iter
          (fun m -> Shard.deliver shards.(m.Msg.dst) m)
          (List.sort Msg.compare (List.concat (Array.to_list sent)))
      done;
      (* Gather each domain's memo counters before the workers join.
         Distinct slots write distinct array cells, so the barrier in
         [run] is the only synchronisation needed. *)
      Sim.Domain_pool.run pool (fun slot ->
          let m = Crypto.Rsa.Memo.shared () in
          verify_memo.(slot) <- (Crypto.Rsa.Memo.hits m, Crypto.Rsa.Memo.misses m)));
  (* Deterministic merge: fold the per-shard results in shard order on the
     main domain.  Every reduction below is order-fixed, so the merged
     result is a pure function of the per-shard runs. *)
  let results = Array.map Shard.result shards in
  let sum f = Array.fold_left (fun acc (s : Shard.result) -> acc + f s) 0 results in
  let metrics = Metrics.create ~seed:config.seed () in
  Array.iter (fun (s : Shard.result) -> Metrics.merge_into metrics s.metrics) results;
  (* Monitor merge: storm tallies add, detection times take the earliest,
     and the end-of-run entry census proves exactly-once rescheduling
     (every VM tracked on exactly one shard). *)
  let earliest a b =
    match (a, b) with Some x, Some y -> Some (min x y) | Some _, None -> a | None, _ -> b
  in
  let mon_storms =
    match config.monitor with
    | None -> []
    | Some m ->
        List.mapi
          (fun i s ->
            let storm, at =
              match s with
              | Monitor.Rack_compromise { at; _ } -> ("rack-compromise", at)
              | Monitor.Image_cve { at; _ } -> ("image-cve", at)
              | Monitor.Migration_wave { at; _ } -> ("migration-wave", at)
            in
            {
              storm;
              at;
              affected = sum (fun s -> s.storm_affected.(i));
              detected_at =
                Array.fold_left
                  (fun acc s -> earliest acc s.Shard.storm_detected.(i))
                  None results;
            })
          m.Monitor.storms
  in
  let mon_entries, mon_entry_dups =
    match config.monitor with
    | None -> (0, 0)
    | Some _ ->
        let seen = Hashtbl.create (max 16 config.vms) in
        let dups = ref (sum (fun s -> s.mon_double_adds)) in
        Array.iter
          (fun (s : Shard.result) ->
            List.iter
              (fun vid -> if Hashtbl.mem seen vid then incr dups else Hashtbl.add seen vid ())
              s.mon_vids)
          results;
        (Hashtbl.length seen, !dups)
  in
  let trace_digest =
    Crypto.Hexs.encode
      (Crypto.Sha256.digest_list (Array.to_list (Array.map (fun s -> s.Shard.trace) results)))
  in
  let duration_s = Sim.Time.to_sec config.duration in
  let latency = Metrics.latency metrics in
  let nz v = if Float.is_nan v then 0.0 else v in
  let pct p = nz (Sim.Stats.Reservoir.percentile latency p) in
  {
    config;
    offered = Metrics.offered metrics;
    served = Metrics.served metrics;
    shed_customer = Metrics.shed metrics Pqueue.Customer;
    shed_periodic = Metrics.shed metrics Pqueue.Periodic;
    shed_recheck = Metrics.shed metrics Pqueue.Recheck;
    coalesced = Metrics.coalesced metrics;
    measurements = Metrics.measurements metrics;
    unhealthy = Metrics.unhealthy metrics;
    cache_hits = Metrics.cache_hits metrics;
    cache_hit_rate = Metrics.cache_hit_rate metrics;
    invalidations = sum (fun s -> s.invalidations);
    migrations = sum (fun s -> s.migrations);
    offered_rps = float_of_int (Metrics.offered metrics) /. duration_s;
    served_rps = float_of_int (Metrics.served metrics) /. duration_s;
    mean_ms = Sim.Stats.Reservoir.mean latency;
    p50_ms = pct 50.0;
    p95_ms = pct 95.0;
    p99_ms = pct 99.0;
    max_queue_depth = Array.fold_left (fun acc s -> max acc s.Shard.max_queue_depth) 0 results;
    mean_queue_depth =
      Array.fold_left (fun acc s -> acc +. s.Shard.mean_queue_depth) 0.0 results
      /. float_of_int shard_count;
    batches = Metrics.batches metrics;
    mean_batch_size = Metrics.mean_batch_size metrics;
    audit_appends = Metrics.audit_appends metrics;
    audit_checkpoints = Metrics.audit_checkpoints metrics;
    audit_proofs = Metrics.audit_proofs metrics;
    audit_equivocations = Metrics.audit_equivocations metrics;
    served_by_backend =
      List.filter_map
        (fun kind ->
          if Array.mem kind config.backends then
            Some
              ( Tpm.Backend.kind_to_string kind,
                sum (fun s -> if s.backend = kind then s.served else 0) )
          else None)
        Tpm.Backend.all_kinds;
    epochs = !epochs;
    verify_memo;
    mon_scheduled = Metrics.mon_scheduled_total metrics;
    mon_served = Metrics.mon_served_total metrics;
    mon_missed_periodic = Metrics.mon_missed metrics Pqueue.Periodic;
    mon_missed_recheck = Metrics.mon_missed metrics Pqueue.Recheck;
    mon_shed = Metrics.mon_shed_total metrics;
    mon_dedups = Metrics.mon_dedups metrics;
    mon_ticks = Metrics.mon_ticks metrics;
    mon_entries;
    mon_entry_dups;
    mon_fresh_min = nz (Sim.Stats.Fraction_series.min_fraction (Metrics.mon_fresh metrics));
    mon_fresh_mean = nz (Sim.Stats.Fraction_series.mean_fraction (Metrics.mon_fresh metrics));
    mon_fresh_final = nz (Sim.Stats.Fraction_series.final_fraction (Metrics.mon_fresh metrics));
    mon_storms;
    trace_digest;
  }

let fingerprint (r : result) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  add "offered=%d" r.offered;
  add "served=%d" r.served;
  add "shed=%d,%d,%d" r.shed_customer r.shed_periodic r.shed_recheck;
  add "coalesced=%d" r.coalesced;
  add "measurements=%d" r.measurements;
  add "unhealthy=%d" r.unhealthy;
  add "cache_hits=%d" r.cache_hits;
  add "cache_hit_rate=%h" r.cache_hit_rate;
  add "invalidations=%d" r.invalidations;
  add "migrations=%d" r.migrations;
  add "offered_rps=%h" r.offered_rps;
  add "served_rps=%h" r.served_rps;
  add "mean_ms=%h" r.mean_ms;
  add "p50=%h" r.p50_ms;
  add "p95=%h" r.p95_ms;
  add "p99=%h" r.p99_ms;
  add "max_qd=%d" r.max_queue_depth;
  add "mean_qd=%h" r.mean_queue_depth;
  add "batches=%d" r.batches;
  add "mean_batch=%h" r.mean_batch_size;
  add "audit=%d,%d,%d,%d" r.audit_appends r.audit_checkpoints r.audit_proofs
    r.audit_equivocations;
  add "served_by=%s"
    (String.concat ","
       (List.map (fun (k, n) -> k ^ ":" ^ string_of_int n) r.served_by_backend));
  (* Monitor lines appear only in monitored runs, so an unmonitored run's
     fingerprint stays byte-identical to the pre-monitor driver's. *)
  (match r.config.monitor with
  | None -> ()
  | Some _ ->
      add "mon=%d,%d,%d,%d,%d,%d" r.mon_scheduled r.mon_served
        r.mon_missed_periodic r.mon_missed_recheck r.mon_shed r.mon_dedups;
      add "mon_ticks=%d" r.mon_ticks;
      add "mon_entries=%d,%d" r.mon_entries r.mon_entry_dups;
      add "mon_fresh=%h,%h,%h" r.mon_fresh_min r.mon_fresh_mean r.mon_fresh_final;
      List.iter
        (fun o ->
          add "mon_storm=%s,%d,%d,%s" o.storm o.at o.affected
            (match o.detected_at with None -> "-" | Some t -> string_of_int t))
        r.mon_storms);
  add "trace=%s" r.trace_digest;
  Crypto.Hexs.encode (Crypto.Sha256.digest (Buffer.contents b))
