type config = {
  seed : int;
  servers : int;
  vms : int;
  as_count : int;
  as_capacity : int;
  queue_depth : int;
  ttl : Sim.Time.t;
  rate_per_s : float;
  duration : Sim.Time.t;
  drain : Sim.Time.t;
  unhealthy_p : float;
  churn_period : Sim.Time.t;
  hot_vms : int;
  hot_p : float;
  customer_p : float;
  periodic_p : float;
  batch_max : int;
  batch_window : Sim.Time.t;
  audit_checkpoint : Sim.Time.t;
      (* transparency-log STH interval; 0 (the default) = audit off *)
  backends : Tpm.Backend.kind array;
      (* trust backend per AS cluster, cluster i running backends.(i mod len) *)
  domains : int;
      (* OCaml domains executing the shards; results are independent of it *)
  epoch : Sim.Time.t;
      (* barrier interval for cross-shard message exchange *)
  monitor : Monitor.config option;
      (* continuous re-attestation scheduler; None (the default) = off,
         byte-identical to the unmonitored driver *)
}

let default_config =
  {
    seed = 2015;
    servers = 200;
    vms = 2000;
    as_count = 1;
    as_capacity = 1;
    queue_depth = 16;
    ttl = 0;
    rate_per_s = 8.0;
    duration = Sim.Time.sec 30;
    drain = Sim.Time.sec 30;
    unhealthy_p = 0.05;
    churn_period = Sim.Time.sec 5;
    hot_vms = 64;
    hot_p = 0.8;
    customer_p = 0.2;
    periodic_p = 0.7;
    batch_max = 1;
    batch_window = 0;
    audit_checkpoint = 0;
    backends = [| Tpm.Backend.Classic |];
    domains = 1;
    epoch = Sim.Time.ms 50;
    monitor = None;
  }

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

(* --- Cost model, anchored to lib/core's calibrated ledger constants ------ *)

(* Fleet clusters span racks, so a wire leg costs more than the single-rack
   LAN model in lib/net.  The crypto and measurement terms are a subset of
   what the real attestation path charges to its ledger: the AS-side term
   below leaves out session keygen (inside [as:server-measure]),
   [as:pca-certify], [as:db-lookup] and [as:report-sign], so
   [cold_attest_ms] (175 ms) sits well under the 547 ms of compute one
   real [Controller.attest] ledger charges. *)
let wire_leg = Sim.Time.ms 12

(* AS-side occupancy of one measurement round under a backend: collect
   from the cloud server (two legs), interpret, the backend's quote
   signature and its verification, plus the CVM platform-chain walk. *)
let cold_service_base_for kind =
  (2 * wire_leg) + Core.Costs.measurement_collect + Core.Costs.interpret
  + Core.Costs.quote_sign_for kind + Core.Costs.signature_verify
  + (match kind with
    | Tpm.Backend.Cvm_report -> Core.Costs.cvm_chain_verify
    | Tpm.Backend.Classic | Tpm.Backend.Evtpm -> 0)

(* Controller-side work around a cold round: route lookup, two legs to the
   AS, verify the AS signature, re-sign for the customer.  Adds latency but
   does not occupy an AS slot. *)
let controller_overhead =
  (2 * wire_leg) + Core.Costs.db_lookup + Core.Costs.signature_verify
  + Core.Costs.report_sign

(* A verdict-cache hit never leaves the serving shard's controller
   partition: database lookup plus re-signing the cached report under the
   fresh nonce — the same charges Controller.attest puts on its ledger for
   a hit. *)
let cache_hit_cost = Core.Costs.db_lookup + Core.Costs.report_sign

(* AS-side occupancy of one n-report batched round: the wire legs, quote
   signing and signature verification are paid once (the signature terms
   via the Merkle-batched costs from {!Core.Costs}), while collection and
   interpretation stay per report.  [n = 1] is exactly the unbatched
   round, so a batch of one costs what a lone request always did. *)
let batch_service_base_for kind n =
  if n <= 1 then cold_service_base_for kind
  else
    (2 * wire_leg)
    + (n * (Core.Costs.measurement_collect + Core.Costs.interpret))
    + (Core.Costs.batch_quote_cost_for ~batch:n kind - Core.Costs.session_keygen_for kind)
    + Core.Costs.batch_verify_cost ~batch:n
    + (match kind with
      | Tpm.Backend.Cvm_report -> Core.Costs.cvm_chain_verify
      | Tpm.Backend.Classic | Tpm.Backend.Evtpm -> 0)

(* Per-verdict transparency-log work when auditing is on: the AS appends
   the signed report (O(log n) sibling hashes), signs a fresh tree head,
   serves the inclusion proof, and the controller verifies the receipt
   before accepting the verdict.  Pure latency — none of it occupies an
   AS measurement slot. *)
let audit_verdict_cost ~size =
  Core.Costs.audit_append ~size + Core.Costs.sth_sign + Core.Costs.audit_proof ~size
  + Core.Costs.audit_receipt_verify ~size

let audit_verdict_ms ~size = Sim.Time.to_ms (audit_verdict_cost ~size)

let cold_attest_ms =
  Sim.Time.to_ms (cold_service_base_for Tpm.Backend.Classic + controller_overhead)
let cache_hit_ms = Sim.Time.to_ms cache_hit_cost
let batch_attest_ms n =
  Sim.Time.to_ms (batch_service_base_for Tpm.Backend.Classic n + controller_overhead)

let properties = Array.of_list Core.Property.all

(* --- Sharded execution ---------------------------------------------------

   One shard per AS cluster.  A shard owns its cluster, engine (clock and
   event queue), verdict-cache partition, metrics, prng streams, audit log
   and the VMs whose *initial* placement was this cluster (their "home").
   The home shard generates a VM's arrivals and runs its lifecycle churn
   for the whole run; the shard of the VM's *current* host serves the
   requests and caches the verdicts.  When those differ, the home shard
   sends a {!Msg.Submit} instead of touching foreign state, and churn sends
   {!Msg.Invalidate} to the clusters the VM moved between.

   Shards never read or write each other's state inside an epoch, so any
   assignment of shards to domains executes the same per-shard event
   sequences; the barrier sorts the union of outboxes by (send time, source
   shard, send seq) — a total order that is itself a pure function of the
   per-shard sequences — making the merged run reproducible bit-for-bit at
   any domain count. *)

type shard = {
  index : int;
  engine : Sim.Engine.t;
  metrics : Metrics.t;
  cache : Core.Verdict_cache.t;
  cluster : Cluster.t;
  pick_prng : Sim.Prng.t;
  churn_prng : Sim.Prng.t;
  my_vms : Topology.vm array;  (* home slice, idx order *)
  my_hot : Topology.vm array;  (* home slice ∩ the fleet-wide hot set *)
  trace : Crypto.Sha256.ctx;
  mutable outbox : Msg.t list;  (* newest first; reversed at the barrier *)
  mutable out_seq : int;
  mutable migrations : int;
  served_by : int array;  (* by backend kind slot *)
  mutable audit_proofs_seen : int;
  mutable audit_evidence_seen : int;
  mon : Monitor.t option;  (* re-attestation scheduler (serving-side state) *)
  compromised : (string, int) Hashtbl.t;  (* vid -> storm index *)
  mon_detect : Sim.Time.t option array;  (* first Compromised seen, per storm *)
  mon_affected : int array;  (* VMs this shard marked/forced, per storm *)
  mutable mon_double_adds : int;  (* scheduler double-tracking events (bug) *)
}

let kind_slot = function
  | Tpm.Backend.Classic -> 0
  | Tpm.Backend.Evtpm -> 1
  | Tpm.Backend.Cvm_report -> 2

let run config =
  let topology =
    Topology.make ~seed:config.seed ~servers:config.servers ~vms:config.vms
      ~as_count:config.as_count
  in
  let shard_count = Topology.as_count topology in
  let horizon = config.duration + config.drain in
  let backend_of_cluster i =
    config.backends.(i mod max 1 (Array.length config.backends))
  in
  (* Every shard's five prng streams are split from the root on the main
     domain, in shard order, before anything runs — the stream assignment
     is part of the configuration, not of the execution schedule. *)
  let root = Sim.Prng.create (config.seed lxor 0x464c45) in
  let streams =
    let arr = Array.make shard_count (root, root, root, root, root) in
    for _s = 0 to shard_count - 1 do
      let arrival = Sim.Prng.split root in
      let pick = Sim.Prng.split root in
      let service = Sim.Prng.split root in
      let verdict = Sim.Prng.split root in
      let churn = Sim.Prng.split root in
      arr.(_s) <- (arrival, pick, service, verdict, churn)
    done;
    arr
  in
  let slices = Topology.home_slices topology in
  let n_storms =
    match config.monitor with
    | None -> 0
    | Some m -> List.length m.Monitor.storms
  in
  let audit_key =
    if config.audit_checkpoint <= 0 then None
    else
      Some
        (Crypto.Rsa.generate
           (Crypto.Drbg.create ~seed:("fleet-audit|" ^ string_of_int config.seed))
           ~bits:512)
          .Crypto.Rsa.secret
  in
  let arrival_prngs = Array.make shard_count root in
  let total_vms = Array.length (Topology.vms topology) in
  let make_shard s =
    let arrival, pick, service, verdict, churn = streams.(s) in
    arrival_prngs.(s) <- arrival;
    let engine = Sim.Engine.create () in
    let metrics = Metrics.create ~seed:(config.seed + s) () in
    let cache =
      Core.Verdict_cache.create ~ttl:config.ttl
        ~clock:(fun () -> Sim.Engine.now engine)
        ()
    in
    let kind = backend_of_cluster s in
    (* One jitter draw per round, batched or not and regardless of
       backend, so a heterogeneous fleet consumes the same PRNG stream as an
       all-classic one: +/-10% around the ledger-derived base. *)
    let service_time n =
      let base = float_of_int (batch_service_base_for kind n) in
      let f = 0.9 +. Sim.Prng.float service 0.2 in
      max 1 (int_of_float (base *. f))
    in
    (* A rack-compromise storm marks VMs in [compromised]; their
       measurements observe it (the planted signal behind the
       time-to-detect SLO).  The verdict draw happens regardless, so an
       unmonitored run consumes the stream identically. *)
    let compromised = Hashtbl.create 16 in
    let mon_detect = Array.make n_storms None in
    let measure ~vid ~property:_ =
      let anomalous = Sim.Prng.float verdict 1.0 < config.unhealthy_p in
      match Hashtbl.find_opt compromised vid with
      | Some si ->
          if mon_detect.(si) = None then mon_detect.(si) <- Some (Sim.Engine.now engine);
          Core.Report.Compromised "planted rack compromise"
      | None ->
          if anomalous then Core.Report.Compromised "fleet-sim anomaly"
          else Core.Report.Healthy
    in
    let cluster =
      Cluster.create ~engine
        ~name:(Printf.sprintf "as-%d" (s + 1))
        ~capacity:config.as_capacity ~queue_depth:config.queue_depth
        ~service_time ~measure ~metrics ~batch_max:config.batch_max
        ~batch_window:config.batch_window ()
    in
    let my_vms = slices.(s) in
    let my_hot =
      Array.of_list
        (List.filter
           (fun vm -> vm.Topology.idx < config.hot_vms)
           (Array.to_list my_vms))
    in
    {
      index = s;
      engine;
      metrics;
      cache;
      cluster;
      pick_prng = pick;
      churn_prng = churn;
      my_vms;
      my_hot;
      trace = Crypto.Sha256.init ();
      outbox = [];
      out_seq = 0;
      migrations = 0;
      served_by = Array.make 3 0;
      audit_proofs_seen = 0;
      audit_evidence_seen = 0;
      mon = Option.map Monitor.create config.monitor;
      compromised;
      mon_detect;
      mon_affected = Array.make n_storms 0;
      mon_double_adds = 0;
    }
  in
  let shards = Array.init shard_count make_shard in
  let trace_line sh line =
    Crypto.Sha256.update sh.trace line;
    Crypto.Sha256.update sh.trace "\n"
  in
  let send sh ~dst payload =
    let m =
      {
        Msg.at = Sim.Engine.now sh.engine;
        src = sh.index;
        seq = sh.out_seq;
        dst;
        payload;
      }
    in
    sh.out_seq <- sh.out_seq + 1;
    sh.outbox <- m :: sh.outbox;
    trace_line sh ("m|" ^ Msg.encode m)
  in
  (* Exactly-once monitor rescheduling: churn emits one Mon_del to the old
     serving cluster and one Mon_add to the new one (locally or over the
     barrier), so a migrating VM's scheduler entry moves — never forks,
     never orphans.  A compromise mark travels along with it. *)
  let local_mon_del sh ~vid ~moved_to =
    (match Hashtbl.find_opt sh.compromised vid with
    | Some si when moved_to <> sh.index ->
        Hashtbl.remove sh.compromised vid;
        send sh ~dst:moved_to (Msg.Compromise { vid; storm = si })
    | Some _ | None -> ());
    match sh.mon with
    | Some mon -> ignore (Monitor.remove mon ~vid : bool)
    | None -> ()
  in
  let local_mon_add sh ~vid ~idx =
    match sh.mon with
    | None -> ()
    | Some mon ->
        let mcfg = Monitor.config mon in
        let deadline = Sim.Engine.now sh.engine + mcfg.Monitor.recheck_budget in
        if not (Monitor.add mon ~vid ~idx ~cls:Pqueue.Recheck ~deadline) then
          sh.mon_double_adds <- sh.mon_double_adds + 1
  in
  let priority_of sh =
    let x = Sim.Prng.float sh.pick_prng 1.0 in
    if x < config.customer_p then Pqueue.Customer
    else if x < config.customer_p +. config.periodic_p then Pqueue.Periodic
    else Pqueue.Recheck
  in
  let record_cache_hit sh ~vid =
    Metrics.record_cache_hit sh.metrics;
    Metrics.record_served sh.metrics ~latency_ms:(Sim.Time.to_ms cache_hit_cost);
    trace_line sh (Printf.sprintf "h|%d|%s" (Sim.Engine.now sh.engine) vid)
  in
  let submit_to_cluster sh ?(k = fun (_ : Cluster.verdict) -> ()) ~vid ~property
      ~priority ~arrived () =
    Cluster.submit sh.cluster ~vid ~property ~priority ~on_done:(fun verdict ->
      (match verdict with
      | Cluster.Shed ->
          (* the cluster recorded the shed *)
          trace_line sh (Printf.sprintf "x|%d|%s" (Sim.Engine.now sh.engine) vid)
      | Cluster.Done status ->
          let slot = kind_slot (backend_of_cluster sh.index) in
          sh.served_by.(slot) <- sh.served_by.(slot) + 1;
          (* The cluster appended this verdict just before delivering it,
             so the log size already covers the entry. *)
          let audit_latency =
            match Cluster.audit sh.cluster with
            | None -> 0
            | Some log ->
                Metrics.record_audit_proof sh.metrics;
                audit_verdict_cost ~size:(Audit.Log.size log)
          in
          let now = Sim.Engine.now sh.engine in
          let latency = now - arrived + controller_overhead + audit_latency in
          Metrics.record_served sh.metrics ~latency_ms:(Sim.Time.to_ms latency);
          trace_line sh (Printf.sprintf "s|%d|%s|%d" now vid latency);
          (match status with
          | Core.Report.Healthy ->
              ignore
                (Core.Verdict_cache.store sh.cache
                   {
                     Core.Report.vid;
                     property;
                     status;
                     evidence = "fleet measurement";
                     produced_at = now;
                   }
                  : bool)
          | Core.Report.Compromised _ | Core.Report.Unknown _ ->
              Metrics.record_unhealthy sh.metrics;
              ignore (Core.Verdict_cache.invalidate sh.cache ~vid ~property : bool)));
      k verdict)
  in
  let arrival sh () =
    Metrics.record_offered sh.metrics;
    let vm =
      Topology.pick_among sh.pick_prng ~pool:sh.my_vms ~hot:sh.my_hot
        ~hot_p:config.hot_p
    in
    let property = properties.(Sim.Prng.int sh.pick_prng (Array.length properties)) in
    let vid = vm.Topology.vid in
    let now = Sim.Engine.now sh.engine in
    trace_line sh
      (Printf.sprintf "a|%d|%s|%s" now vid (Core.Property.to_string property));
    let dst = Topology.cluster_of_vm topology vm in
    if dst = sh.index then
      match Core.Verdict_cache.find sh.cache ~vid ~property with
      | Some _ -> record_cache_hit sh ~vid
      | None ->
          (* Priority is drawn only on a miss, as the single-engine driver
             always did; the remote path below draws it at send time
             because the sender cannot see the destination's cache. *)
          submit_to_cluster sh ~vid ~property ~priority:(priority_of sh)
            ~arrived:now ()
    else
      send sh ~dst (Msg.Submit { vid; property; priority = priority_of sh; arrived = now })
  in
  let deliver sh (m : Msg.t) =
    trace_line sh ("d|" ^ Msg.encode m);
    match m.Msg.payload with
    | Msg.Submit { vid; property; priority; arrived } -> (
        match Core.Verdict_cache.find sh.cache ~vid ~property with
        | Some _ -> record_cache_hit sh ~vid
        | None -> submit_to_cluster sh ~vid ~property ~priority ~arrived ())
    | Msg.Invalidate { vid } ->
        ignore (Core.Verdict_cache.invalidate_vm sh.cache ~vid : int)
    | Msg.Mon_add { vid; idx } -> local_mon_add sh ~vid ~idx
    | Msg.Mon_del { vid; moved_to } -> local_mon_del sh ~vid ~moved_to
    | Msg.Compromise { vid; storm } -> Hashtbl.replace sh.compromised vid storm
  in
  let churn sh () =
    (* Lifecycle churn concentrates where the load is: hot VMs. *)
    let vm =
      Topology.pick_among sh.churn_prng ~pool:sh.my_vms ~hot:sh.my_hot ~hot_p:0.9
    in
    let old_cluster = Topology.cluster_of_vm topology vm in
    ignore (Topology.migrate topology sh.churn_prng vm : string);
    let new_cluster = Topology.cluster_of_vm topology vm in
    sh.migrations <- sh.migrations + 1;
    trace_line sh
      (Printf.sprintf "g|%d|%s|%d|%d" (Sim.Engine.now sh.engine) vm.Topology.vid
         old_cluster new_cluster);
    (* Cached verdicts live on the serving shard: drop them where the VM
       was, and defensively where it lands (a re-arrival there must
       re-measure, never resurrect a pre-migration verdict). *)
    let invalidate_at c =
      if c = sh.index then
        ignore (Core.Verdict_cache.invalidate_vm sh.cache ~vid:vm.Topology.vid : int)
      else send sh ~dst:c (Msg.Invalidate { vid = vm.Topology.vid })
    in
    invalidate_at old_cluster;
    if new_cluster <> old_cluster then invalidate_at new_cluster;
    (* Reschedule the VM's re-attestation on its new serving shard exactly
       once: one Mon_del at the old cluster, one Mon_add at the new (the
       rule DESIGN.md §17 states; the pair is emitted even when the VM
       stays in-cluster, so a post-migration recheck always happens). *)
    match sh.mon with
    | None -> ()
    | Some _ ->
        let vid = vm.Topology.vid in
        (if old_cluster = sh.index then local_mon_del sh ~vid ~moved_to:new_cluster
         else send sh ~dst:old_cluster (Msg.Mon_del { vid; moved_to = new_cluster }));
        if new_cluster = sh.index then local_mon_add sh ~vid ~idx:vm.Topology.idx
        else send sh ~dst:new_cluster (Msg.Mon_add { vid; idx = vm.Topology.idx })
  in
  (* One scheduler probe: a real cluster submission whose completion is
     classified against the deadline captured at submit time — so every
     scheduled probe lands in exactly one of served / missed / shed even
     if the entry migrates away mid-flight. *)
  let submit_probe sh mon (p : Monitor.probe) =
    let now = Sim.Engine.now sh.engine in
    Metrics.record_mon_scheduled sh.metrics p.Monitor.cls;
    trace_line sh
      (Printf.sprintf "p|%d|%s|%s|%d" now p.Monitor.vid
         (Core.Property.to_string p.Monitor.prop)
         (Pqueue.rank p.Monitor.cls));
    submit_to_cluster sh ~vid:p.Monitor.vid ~property:p.Monitor.prop
      ~priority:p.Monitor.cls ~arrived:now
      ~k:(fun verdict ->
        let done_at = Sim.Engine.now sh.engine in
        let served =
          match verdict with Cluster.Done _ -> true | Cluster.Shed -> false
        in
        (if not served then Metrics.record_mon_shed sh.metrics p.Monitor.cls
         else if done_at <= p.Monitor.deadline then
           Metrics.record_mon_served sh.metrics p.Monitor.cls
         else Metrics.record_mon_missed sh.metrics p.Monitor.cls);
        Monitor.complete mon p ~now:done_at ~served)
      ()
  in
  let process_storm sh mon si storm =
    let now = Sim.Engine.now sh.engine in
    match storm with
    | Monitor.Rack_compromise { at = _; cluster } ->
        (* Each home shard marks its own VMs currently hosted on the rack
           (it is the sole writer of their placement), telling the serving
           shard over the barrier when that is someone else. *)
        let n = ref 0 in
        Array.iter
          (fun vm ->
            if Topology.cluster_of_vm topology vm = cluster then begin
              incr n;
              let vid = vm.Topology.vid in
              if cluster = sh.index then Hashtbl.replace sh.compromised vid si
              else send sh ~dst:cluster (Msg.Compromise { vid; storm = si })
            end)
          sh.my_vms;
        sh.mon_affected.(si) <- sh.mon_affected.(si) + !n;
        trace_line sh (Printf.sprintf "w|%d|rack|%d|%d" now si !n)
    | Monitor.Image_cve { at = _; property } ->
        let vids = Monitor.force_all mon ~now ~cls:Pqueue.Recheck ~prop:property in
        List.iter
          (fun vid ->
            ignore (Core.Verdict_cache.invalidate sh.cache ~vid ~property : bool))
          vids;
        let n = List.length vids in
        sh.mon_affected.(si) <- sh.mon_affected.(si) + n;
        trace_line sh (Printf.sprintf "w|%d|cve|%d|%d" now si n)
    | Monitor.Migration_wave { at = _; count } ->
        let mine = Array.length sh.my_vms in
        let k = if mine = 0 then 0 else count * mine / total_vms in
        for _ = 1 to k do
          churn sh ()
        done;
        sh.mon_affected.(si) <- sh.mon_affected.(si) + k;
        trace_line sh (Printf.sprintf "w|%d|wave|%d|%d" now si k)
  in
  let mon_tick sh mon () =
    let mcfg = Monitor.config mon in
    let now = Sim.Engine.now sh.engine in
    (* Storms first, so their forced rechecks can probe this very tick. *)
    List.iter
      (fun (si, storm) -> process_storm sh mon si storm)
      (Monitor.due_storms mon ~now);
    let fresh_until ~vid ~prop =
      match Core.Verdict_cache.find sh.cache ~vid ~property:prop with
      | Some r ->
          let until = Monitor.fresh_until_of_report mcfg r in
          if until > now then Some until else None
      | None -> None
    in
    let { Monitor.probes; dedups; fresh; total } =
      Monitor.tick mon ~now ~fresh_until
    in
    List.iter
      (fun vid ->
        Metrics.record_mon_dedup sh.metrics;
        trace_line sh (Printf.sprintf "u|%d|%s" now vid))
      dedups;
    List.iter (fun p -> submit_probe sh mon p) probes;
    Metrics.record_mon_tick sh.metrics ~fresh ~total
  in
  (* Per-shard processes: arrivals at a rate proportional to the shard's
     share of the fleet (independent Poisson streams superpose to the
     configured total rate), and churn staggered so the fleet-wide
     migration cadence stays one per [churn_period]. *)
  Array.iter
    (fun sh ->
      (match audit_key with
      | None -> ()
      | Some key ->
          let log =
            Audit.Log.create ~log_id:(Cluster.name sh.cluster) ~key
              ~clock:(fun () -> Sim.Engine.now sh.engine)
              ()
          in
          Cluster.set_audit sh.cluster (Some log);
          let pub = Audit.Log.public_key log in
          let clock () = Sim.Engine.now sh.engine in
          let mk name = Audit.Auditor.create ~name ~key_of:(fun _ -> Some pub) ~clock () in
          let auditors =
            [|
              mk (Printf.sprintf "fleet-auditor-%d-a" (sh.index + 1));
              mk (Printf.sprintf "fleet-auditor-%d-b" (sh.index + 1));
            |]
          in
          let view = Audit.View.of_log log in
          ignore
            (Sim.Engine.every sh.engine ~period:config.audit_checkpoint
               ~until:horizon (fun () ->
                 ignore (Audit.Log.checkpoint log : Audit.Sth.t);
                 Metrics.record_audit_checkpoint sh.metrics;
                 Array.iter (fun a -> Audit.Auditor.observe a view) auditors;
                 Audit.Auditor.exchange auditors.(0) auditors.(1);
                 let proofs =
                   Array.fold_left
                     (fun acc a -> acc + Audit.Auditor.proofs_checked a)
                     0 auditors
                 in
                 for _ = sh.audit_proofs_seen + 1 to proofs do
                   Metrics.record_audit_proof sh.metrics
                 done;
                 sh.audit_proofs_seen <- proofs;
                 let evidence =
                   Array.fold_left
                     (fun acc a -> acc + Audit.Auditor.evidence_count a)
                     0 auditors
                 in
                 Metrics.record_audit_equivocations sh.metrics
                   (evidence - sh.audit_evidence_seen);
                 sh.audit_evidence_seen <- evidence)
              : Sim.Engine.handle));
      (match sh.mon with
      | None -> ()
      | Some mon ->
          let mcfg = Monitor.config mon in
          (* Initially every VM is served by its home cluster, so its
             entry starts here; first deadlines are staggered across the
             budget by fleet index, spreading the first monitoring cycle
             uniformly instead of thundering at t = budget. *)
          Array.iter
            (fun vm ->
              let deadline =
                mcfg.Monitor.budget * (vm.Topology.idx + 1) / total_vms
              in
              if
                not
                  (Monitor.add mon ~vid:vm.Topology.vid ~idx:vm.Topology.idx
                     ~cls:Pqueue.Periodic ~deadline)
              then sh.mon_double_adds <- sh.mon_double_adds + 1)
            sh.my_vms;
          (* Every shard ticks — even one with no home VMs tracks entries
             that migrate in — and at the same absolute times, keeping the
             per-shard fresh series index-aligned for the merge. *)
          if mcfg.Monitor.tick > 0 then
            ignore
              (Sim.Engine.every sh.engine ~period:mcfg.Monitor.tick
                 ~until:config.duration (mon_tick sh mon)
                : Sim.Engine.handle));
      let n_mine = Array.length sh.my_vms in
      if n_mine > 0 then begin
        let rate =
          config.rate_per_s *. float_of_int n_mine /. float_of_int total_vms
        in
        if rate > 0.0 then
          Load.poisson ~engine:sh.engine ~prng:arrival_prngs.(sh.index)
            ~rate_per_s:rate ~until:config.duration (arrival sh);
        if config.churn_period > 0 then begin
          let stride = config.churn_period * shard_count in
          let rec arm at =
            if at <= config.duration then
              ignore
                (Sim.Engine.schedule sh.engine ~at (fun () ->
                     churn sh ();
                     arm (at + stride))
                  : Sim.Engine.handle)
          in
          arm (config.churn_period * (sh.index + 1))
        end
      end)
    shards;
  (* Epoch-barrier loop.  Within an epoch every shard advances alone on its
     domain; at the barrier the main domain gathers the outboxes, imposes
     the (at, src, seq) total order, and schedules each message on its
     destination engine at the barrier time.  The loop keeps stepping past
     the arrival horizon until every queue is empty and no message is in
     flight, so offered = served + shed exactly. *)
  let epoch = max 1 config.epoch in
  let slots = max 1 (min config.domains shard_count) in
  let pool = Sim.Domain_pool.create ~slots in
  (* The RSA verify memo is domain-local (Domain.DLS); reset every slot's
     memo up front so the counters gathered after the run are attributable
     to this run alone, whatever ran on these domains before. *)
  Sim.Domain_pool.run pool (fun _slot -> Crypto.Rsa.Memo.clear (Crypto.Rsa.Memo.shared ()));
  let epochs = ref 0 in
  let finish () =
    try
      let t = ref Sim.Time.zero in
      let some_pending () =
        Array.exists (fun sh -> Sim.Engine.pending sh.engine > 0) shards
      in
      while !t < horizon || some_pending () do
        t := !t + epoch;
        incr epochs;
        Sim.Domain_pool.run pool (fun slot ->
            Array.iter
              (fun sh ->
                if sh.index mod slots = slot then
                  Sim.Engine.run_until sh.engine !t)
              shards);
        let msgs =
          Array.fold_left
            (fun acc sh ->
              let mine = sh.outbox in
              sh.outbox <- [];
              List.rev_append mine acc)
            [] shards
        in
        let msgs = List.sort Msg.compare msgs in
        List.iter
          (fun m ->
            let dst = shards.(m.Msg.dst) in
            ignore
              (Sim.Engine.schedule dst.engine ~at:!t (fun () -> deliver dst m)
                : Sim.Engine.handle))
          msgs
      done
    with e ->
      Sim.Domain_pool.shutdown pool;
      raise e
  in
  finish ();
  (* Gather each domain's memo counters before the workers join.  Distinct
     slots write distinct array cells, so the barrier in [run] is the only
     synchronisation needed. *)
  let verify_memo = Array.make slots (0, 0) in
  Sim.Domain_pool.run pool (fun slot ->
      let m = Crypto.Rsa.Memo.shared () in
      verify_memo.(slot) <- (Crypto.Rsa.Memo.hits m, Crypto.Rsa.Memo.misses m));
  Sim.Domain_pool.shutdown pool;
  (* Deterministic merge: fold per-shard state in shard order on the main
     domain.  Every reduction below is order-fixed, so the merged result is
     a pure function of the per-shard runs. *)
  let metrics = Metrics.create ~seed:config.seed () in
  Array.iter (fun sh -> Metrics.merge_into metrics sh.metrics) shards;
  let served_by = Array.make 3 0 in
  Array.iter
    (fun sh -> Array.iteri (fun i n -> served_by.(i) <- served_by.(i) + n) sh.served_by)
    shards;
  let invalidations =
    Array.fold_left
      (fun acc sh -> acc + (Core.Verdict_cache.stats sh.cache).Core.Verdict_cache.invalidations)
      0 shards
  in
  let migrations = Array.fold_left (fun acc sh -> acc + sh.migrations) 0 shards in
  (* Monitor merge: storm tallies add, detection times take the earliest,
     and the end-of-run entry census proves exactly-once rescheduling
     (every VM tracked on exactly one shard). *)
  let mon_affected = Array.make n_storms 0 in
  let mon_detect = Array.make n_storms None in
  Array.iter
    (fun sh ->
      Array.iteri (fun i n -> mon_affected.(i) <- mon_affected.(i) + n) sh.mon_affected;
      Array.iteri
        (fun i d ->
          match (d, mon_detect.(i)) with
          | Some t, Some t' -> if t < t' then mon_detect.(i) <- Some t
          | Some t, None -> mon_detect.(i) <- Some t
          | None, _ -> ())
        sh.mon_detect)
    shards;
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
            { storm; at; affected = mon_affected.(i); detected_at = mon_detect.(i) })
          m.Monitor.storms
  in
  let mon_entries, mon_entry_dups =
    match config.monitor with
    | None -> (0, 0)
    | Some _ ->
        let seen = Hashtbl.create (max 16 total_vms) in
        let dups =
          ref (Array.fold_left (fun acc sh -> acc + sh.mon_double_adds) 0 shards)
        in
        Array.iter
          (fun sh ->
            match sh.mon with
            | None -> ()
            | Some mon ->
                List.iter
                  (fun vid ->
                    if Hashtbl.mem seen vid then incr dups
                    else Hashtbl.add seen vid ())
                  (Monitor.vids mon))
          shards;
        (Hashtbl.length seen, !dups)
  in
  let trace_digest =
    let buf = Buffer.create (40 * shard_count) in
    Array.iter (fun sh -> Buffer.add_string buf (Crypto.Sha256.finalize sh.trace)) shards;
    Crypto.Hexs.encode (Crypto.Sha256.digest (Buffer.contents buf))
  in
  let duration_s = Sim.Time.to_sec config.duration in
  let latency = Metrics.latency metrics in
  let nz v = if Float.is_nan v then 0.0 else v in
  let pct p = nz (Sim.Stats.Reservoir.percentile latency p) in
  let max_depth =
    Array.fold_left
      (fun acc sh -> max acc (Sim.Stats.Gauge.peak (Cluster.queue_gauge sh.cluster)))
      0 shards
  in
  let mean_depth =
    let total =
      Array.fold_left
        (fun acc sh ->
          let now_s = Sim.Time.to_sec (Sim.Engine.now sh.engine) in
          acc
          +. Sim.Stats.Gauge.time_weighted_mean (Cluster.queue_gauge sh.cluster)
               ~now:now_s)
        0.0 shards
    in
    total /. float_of_int shard_count
  in
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
    invalidations;
    migrations;
    offered_rps = float_of_int (Metrics.offered metrics) /. duration_s;
    served_rps = float_of_int (Metrics.served metrics) /. duration_s;
    mean_ms = Sim.Stats.Reservoir.mean latency;
    p50_ms = pct 50.0;
    p95_ms = pct 95.0;
    p99_ms = pct 99.0;
    max_queue_depth = max_depth;
    mean_queue_depth = mean_depth;
    batches = Metrics.batches metrics;
    mean_batch_size = Metrics.mean_batch_size metrics;
    audit_appends = Metrics.audit_appends metrics;
    audit_checkpoints = Metrics.audit_checkpoints metrics;
    audit_proofs = Metrics.audit_proofs metrics;
    audit_equivocations = Metrics.audit_equivocations metrics;
    served_by_backend =
      List.filter_map
        (fun kind ->
          if Array.exists (fun k -> k = kind) config.backends then
            Some (Tpm.Backend.kind_to_string kind, served_by.(kind_slot kind))
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
