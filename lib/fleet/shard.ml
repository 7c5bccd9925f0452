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

(* --- One AS cluster's shard ---------------------------------------------- *)

type t = {
  config : Config.config;
  topology : Topology.t;  (* shared; a shard touches only its home VMs' hosts *)
  index : int;
  kind : Tpm.Backend.kind;
  engine : Sim.Engine.t;
  metrics : Metrics.t;
  cache : Core.Verdict_cache.t;
  cluster : Cluster.t;
  pick_prng : Sim.Prng.t;
  churn_prng : Sim.Prng.t;
  my_vms : Topology.vm array;  (* home slice, idx order *)
  my_hot : Topology.vm array;  (* home slice ∩ the fleet-wide hot set *)
  trace : Crypto.Sha256.ctx;
  mutable outbox : Msg.t list;  (* newest first *)
  mutable out_seq : int;
  mutable migrations : int;
  mutable served : int;  (* cluster-served requests *)
  mutable audit_proofs_seen : int;
  mutable audit_evidence_seen : int;
  mon : Monitor.t option;  (* re-attestation scheduler (serving-side state) *)
  compromised : (string, int) Hashtbl.t;  (* vid -> storm index *)
  mon_detect : Sim.Time.t option array;  (* first Compromised seen, per storm *)
  mon_affected : int array;  (* VMs this shard marked/forced, per storm *)
  mutable mon_double_adds : int;  (* scheduler double-tracking events (bug) *)
}

let total_vms sh = Array.length (Topology.vms sh.topology)

let trace_line sh line =
  Crypto.Sha256.update sh.trace line;
  Crypto.Sha256.update sh.trace "\n"

let send sh ~dst payload =
  let m = { Msg.at = Sim.Engine.now sh.engine; src = sh.index; seq = sh.out_seq; dst; payload } in
  sh.out_seq <- sh.out_seq + 1;
  sh.outbox <- m :: sh.outbox;
  trace_line sh ("m|" ^ Msg.encode m)

let track sh mon ~vid ~idx ~cls ~deadline =
  if not (Monitor.add mon ~vid ~idx ~cls ~deadline) then
    sh.mon_double_adds <- sh.mon_double_adds + 1

let priority_of sh =
  let x = Sim.Prng.float sh.pick_prng 1.0 in
  if x < sh.config.customer_p then Pqueue.Customer
  else if x < sh.config.customer_p +. sh.config.periodic_p then Pqueue.Periodic
  else Pqueue.Recheck

let submit_to_cluster sh ~vid ~property ~priority ~arrived k =
  Cluster.submit sh.cluster ~vid ~property ~priority ~on_done:(fun verdict ->
    (match verdict with
    | Cluster.Shed ->
        (* the cluster recorded the shed *)
        trace_line sh (Printf.sprintf "x|%d|%s" (Sim.Engine.now sh.engine) vid)
    | Cluster.Done status ->
        sh.served <- sh.served + 1;
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

(* A request for a VM this shard serves: a cached verdict answers it,
   otherwise the cluster measures.  [priority] is forced only on a miss. *)
let serve sh ~vid ~property ~arrived priority =
  match Core.Verdict_cache.find sh.cache ~vid ~property with
  | Some _ ->
      Metrics.record_cache_hit sh.metrics;
      Metrics.record_served sh.metrics ~latency_ms:(Sim.Time.to_ms cache_hit_cost);
      trace_line sh (Printf.sprintf "h|%d|%s" (Sim.Engine.now sh.engine) vid)
  | None -> submit_to_cluster sh ~vid ~property ~priority:(priority ()) ~arrived ignore

(* The one way a shard touches state it may not own: a payload for shard
   [dst] is applied here when [dst] is this shard, and otherwise sent over
   the barrier, where {!deliver} applies it the same way. *)
let rec apply sh ~dst payload =
  if dst <> sh.index then send sh ~dst payload
  else
    match payload with
    | Msg.Submit { vid; property; priority; arrived } ->
        serve sh ~vid ~property ~arrived (fun () -> priority)
    | Msg.Invalidate { vid } -> ignore (Core.Verdict_cache.invalidate_vm sh.cache ~vid : int)
    | Msg.Mon_add { vid; idx } -> (
        match sh.mon with
        | None -> ()
        | Some mon ->
            let deadline =
              Sim.Engine.now sh.engine + (Monitor.config mon).Monitor.recheck_budget
            in
            track sh mon ~vid ~idx ~cls:Pqueue.Recheck ~deadline)
    | Msg.Mon_del { vid; moved_to } ->
        (* A compromise mark travels with the VM's scheduler entry. *)
        (match Hashtbl.find_opt sh.compromised vid with
        | Some storm ->
            Hashtbl.remove sh.compromised vid;
            apply sh ~dst:moved_to (Msg.Compromise { vid; storm })
        | None -> ());
        Option.iter (fun mon -> ignore (Monitor.remove mon ~vid : bool)) sh.mon
    | Msg.Compromise { vid; storm } -> Hashtbl.replace sh.compromised vid storm

let arrival sh () =
  Metrics.record_offered sh.metrics;
  let vm =
    Topology.pick_among sh.pick_prng ~pool:sh.my_vms ~hot:sh.my_hot ~hot_p:sh.config.hot_p
  in
  let property = properties.(Sim.Prng.int sh.pick_prng (Array.length properties)) in
  let vid = vm.Topology.vid in
  let now = Sim.Engine.now sh.engine in
  trace_line sh (Printf.sprintf "a|%d|%s|%s" now vid (Core.Property.to_string property));
  let dst = Topology.cluster_of_vm sh.topology vm in
  (* A local request draws its priority only on a cache miss, as the
     single-engine driver always did; a remote one draws it at send time,
     because the sender cannot see the destination's cache. *)
  if dst = sh.index then serve sh ~vid ~property ~arrived:now (fun () -> priority_of sh)
  else send sh ~dst (Msg.Submit { vid; property; priority = priority_of sh; arrived = now })

let churn sh () =
  (* Lifecycle churn concentrates where the load is: hot VMs. *)
  let vm = Topology.pick_among sh.churn_prng ~pool:sh.my_vms ~hot:sh.my_hot ~hot_p:0.9 in
  let vid = vm.Topology.vid in
  let old_cluster = Topology.cluster_of_vm sh.topology vm in
  ignore (Topology.migrate sh.topology sh.churn_prng vm : string);
  let new_cluster = Topology.cluster_of_vm sh.topology vm in
  sh.migrations <- sh.migrations + 1;
  trace_line sh
    (Printf.sprintf "g|%d|%s|%d|%d" (Sim.Engine.now sh.engine) vid old_cluster new_cluster);
  (* Cached verdicts live on the serving shard: drop them where the VM
     was, and defensively where it lands (a re-arrival there must
     re-measure, never resurrect a pre-migration verdict). *)
  apply sh ~dst:old_cluster (Msg.Invalidate { vid });
  if new_cluster <> old_cluster then apply sh ~dst:new_cluster (Msg.Invalidate { vid });
  (* Reschedule the VM's re-attestation on its new serving shard exactly
     once: one Mon_del at the old cluster, one Mon_add at the new (the
     rule DESIGN.md §17 states; the pair is emitted even when the VM
     stays in-cluster, so a post-migration recheck always happens). *)
  if Option.is_some sh.mon then begin
    apply sh ~dst:old_cluster (Msg.Mon_del { vid; moved_to = new_cluster });
    apply sh ~dst:new_cluster (Msg.Mon_add { vid; idx = vm.Topology.idx })
  end

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
  submit_to_cluster sh ~vid:p.Monitor.vid ~property:p.Monitor.prop ~priority:p.Monitor.cls
    ~arrived:now (fun verdict ->
      let done_at = Sim.Engine.now sh.engine in
      let served = match verdict with Cluster.Done _ -> true | Cluster.Shed -> false in
      (if not served then Metrics.record_mon_shed sh.metrics p.Monitor.cls
       else if done_at <= p.Monitor.deadline then
         Metrics.record_mon_served sh.metrics p.Monitor.cls
       else Metrics.record_mon_missed sh.metrics p.Monitor.cls);
      Monitor.complete mon p ~now:done_at ~served)

let process_storm sh mon si storm =
  let now = Sim.Engine.now sh.engine in
  match storm with
  | Monitor.Rack_compromise { at = _; cluster } ->
      (* Each home shard marks its own VMs currently hosted on the rack (it
         is the sole writer of their placement). *)
      let n = ref 0 in
      Array.iter
        (fun vm ->
          if Topology.cluster_of_vm sh.topology vm = cluster then begin
            incr n;
            apply sh ~dst:cluster (Msg.Compromise { vid = vm.Topology.vid; storm = si })
          end)
        sh.my_vms;
      sh.mon_affected.(si) <- sh.mon_affected.(si) + !n;
      trace_line sh (Printf.sprintf "w|%d|rack|%d|%d" now si !n)
  | Monitor.Image_cve { at = _; property } ->
      let vids = Monitor.force_all mon ~now ~cls:Pqueue.Recheck ~prop:property in
      List.iter
        (fun vid -> ignore (Core.Verdict_cache.invalidate sh.cache ~vid ~property : bool))
        vids;
      let n = List.length vids in
      sh.mon_affected.(si) <- sh.mon_affected.(si) + n;
      trace_line sh (Printf.sprintf "w|%d|cve|%d|%d" now si n)
  | Monitor.Migration_wave { at = _; count } ->
      let mine = Array.length sh.my_vms in
      let k = if mine = 0 then 0 else count * mine / total_vms sh in
      for _ = 1 to k do
        churn sh ()
      done;
      sh.mon_affected.(si) <- sh.mon_affected.(si) + k;
      trace_line sh (Printf.sprintf "w|%d|wave|%d|%d" now si k)

let mon_tick sh mon () =
  let mcfg = Monitor.config mon in
  let now = Sim.Engine.now sh.engine in
  (* Storms first, so their forced rechecks can probe this very tick. *)
  List.iter (fun (si, storm) -> process_storm sh mon si storm) (Monitor.due_storms mon ~now);
  let fresh_until ~vid ~prop =
    match Core.Verdict_cache.find sh.cache ~vid ~property:prop with
    | Some r ->
        let until = Monitor.fresh_until_of_report mcfg r in
        if until > now then Some until else None
    | None -> None
  in
  let { Monitor.probes; dedups; fresh; total } = Monitor.tick mon ~now ~fresh_until in
  List.iter
    (fun vid ->
      Metrics.record_mon_dedup sh.metrics;
      trace_line sh (Printf.sprintf "u|%d|%s" now vid))
    dedups;
  List.iter (fun p -> submit_probe sh mon p) probes;
  Metrics.record_mon_tick sh.metrics ~fresh ~total

(* A checkpoint signs the log's tree head; two auditors poll it and gossip,
   and the proofs and evidence they gathered since the last checkpoint
   are counted. *)
let audit_checkpoint sh log auditors view () =
  ignore (Audit.Log.checkpoint log : Audit.Sth.t);
  Metrics.record_audit_checkpoint sh.metrics;
  Array.iter (fun a -> Audit.Auditor.observe a view) auditors;
  Audit.Auditor.exchange auditors.(0) auditors.(1);
  let proofs = Array.fold_left (fun acc a -> acc + Audit.Auditor.proofs_checked a) 0 auditors in
  for _ = sh.audit_proofs_seen + 1 to proofs do
    Metrics.record_audit_proof sh.metrics
  done;
  sh.audit_proofs_seen <- proofs;
  let evidence = Array.fold_left (fun acc a -> acc + Audit.Auditor.evidence_count a) 0 auditors in
  Metrics.record_audit_equivocations sh.metrics (evidence - sh.audit_evidence_seen);
  sh.audit_evidence_seen <- evidence

let arm_audit sh key =
  let clock () = Sim.Engine.now sh.engine in
  let log = Audit.Log.create ~log_id:(Cluster.name sh.cluster) ~key ~clock () in
  Cluster.set_audit sh.cluster (Some log);
  let pub = Audit.Log.public_key log in
  let mk name = Audit.Auditor.create ~name ~key_of:(fun _ -> Some pub) ~clock () in
  let auditors =
    [|
      mk (Printf.sprintf "fleet-auditor-%d-a" (sh.index + 1));
      mk (Printf.sprintf "fleet-auditor-%d-b" (sh.index + 1));
    |]
  in
  ignore
    (Sim.Engine.every sh.engine ~period:sh.config.audit_checkpoint
       ~until:(sh.config.duration + sh.config.drain)
       (audit_checkpoint sh log auditors (Audit.View.of_log log))
      : Sim.Engine.handle)

let arm_monitor sh mon =
  let mcfg = Monitor.config mon in
  (* Initially every VM is served by its home cluster, so its entry starts
     here; first deadlines are staggered across the budget by fleet index,
     spreading the first monitoring cycle uniformly instead of thundering
     at t = budget. *)
  Array.iter
    (fun vm ->
      let deadline = mcfg.Monitor.budget * (vm.Topology.idx + 1) / total_vms sh in
      track sh mon ~vid:vm.Topology.vid ~idx:vm.Topology.idx ~cls:Pqueue.Periodic ~deadline)
    sh.my_vms;
  (* Every shard ticks — even one with no home VMs tracks entries that
     migrate in — and at the same absolute times, keeping the per-shard
     fresh series index-aligned for the merge. *)
  if mcfg.Monitor.tick > 0 then
    ignore
      (Sim.Engine.every sh.engine ~period:mcfg.Monitor.tick ~until:sh.config.duration
         (mon_tick sh mon)
        : Sim.Engine.handle)

(* Arrivals at a rate proportional to the shard's share of the fleet
   (independent Poisson streams superpose to the configured total rate),
   and churn staggered so the fleet-wide migration cadence stays one per
   [churn_period]. *)
let arm_load sh arrival_prng =
  let config = sh.config in
  let n_mine = Array.length sh.my_vms in
  if n_mine > 0 then begin
    let rate = config.rate_per_s *. float_of_int n_mine /. float_of_int (total_vms sh) in
    if rate > 0.0 then
      Load.poisson ~engine:sh.engine ~prng:arrival_prng ~rate_per_s:rate
        ~until:config.duration (arrival sh);
    if config.churn_period > 0 then begin
      let stride = config.churn_period * Topology.as_count sh.topology in
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
  end

let create (config : Config.config) topology ~root ~audit_key index =
  let arrival = Sim.Prng.split root in
  let pick = Sim.Prng.split root in
  let service = Sim.Prng.split root in
  let verdict = Sim.Prng.split root in
  let churn = Sim.Prng.split root in
  let engine = Sim.Engine.create () in
  let metrics = Metrics.create ~seed:(config.seed + index) () in
  let kind = config.backends.(index mod max 1 (Array.length config.backends)) in
  (* One jitter draw per round, batched or not and regardless of backend,
     so a heterogeneous fleet consumes the same PRNG stream as an
     all-classic one: +/-10% around the ledger-derived base. *)
  let service_time n =
    let base = float_of_int (batch_service_base_for kind n) in
    let f = 0.9 +. Sim.Prng.float service 0.2 in
    max 1 (int_of_float (base *. f))
  in
  (* A rack-compromise storm marks VMs in [compromised]; their
     measurements observe it (the planted signal behind the time-to-detect
     SLO).  The verdict draw happens regardless, so an unmonitored run
     consumes the stream identically. *)
  let n_storms =
    match config.monitor with None -> 0 | Some m -> List.length m.Monitor.storms
  in
  let compromised = Hashtbl.create 16 in
  let mon_detect = Array.make n_storms None in
  let measure ~vid ~property:_ =
    let anomalous = Sim.Prng.float verdict 1.0 < config.unhealthy_p in
    match Hashtbl.find_opt compromised vid with
    | Some si ->
        if mon_detect.(si) = None then mon_detect.(si) <- Some (Sim.Engine.now engine);
        Core.Report.Compromised "planted rack compromise"
    | None ->
        if anomalous then Core.Report.Compromised "fleet-sim anomaly" else Core.Report.Healthy
  in
  let my_vms = Topology.home_slice topology index in
  let sh =
    {
      config;
      topology;
      index;
      kind;
      engine;
      metrics;
      cache =
        Core.Verdict_cache.create ~ttl:config.ttl ~clock:(fun () -> Sim.Engine.now engine) ();
      cluster =
        Cluster.create ~engine
          ~name:(Printf.sprintf "as-%d" (index + 1))
          ~capacity:config.as_capacity ~queue_depth:config.queue_depth ~service_time ~measure
          ~metrics ~batch_max:config.batch_max ~batch_window:config.batch_window ();
      pick_prng = pick;
      churn_prng = churn;
      my_vms;
      my_hot =
        Array.of_list
          (List.filter (fun vm -> vm.Topology.idx < config.hot_vms) (Array.to_list my_vms));
      trace = Crypto.Sha256.init ();
      outbox = [];
      out_seq = 0;
      migrations = 0;
      served = 0;
      audit_proofs_seen = 0;
      audit_evidence_seen = 0;
      mon = Option.map Monitor.create config.monitor;
      compromised;
      mon_detect;
      mon_affected = Array.make n_storms 0;
      mon_double_adds = 0;
    }
  in
  Option.iter (arm_audit sh) audit_key;
  Option.iter (arm_monitor sh) sh.mon;
  arm_load sh arrival;
  sh

let advance sh ~until =
  Sim.Engine.run_until sh.engine until;
  let out = List.rev sh.outbox in
  sh.outbox <- [];
  out

let deliver sh (m : Msg.t) =
  ignore
    (Sim.Engine.schedule sh.engine ~at:(Sim.Engine.now sh.engine) (fun () ->
         trace_line sh ("d|" ^ Msg.encode m);
         apply sh ~dst:m.Msg.dst m.Msg.payload)
      : Sim.Engine.handle)

let pending sh = Sim.Engine.pending sh.engine

type result = {
  metrics : Metrics.t;
  backend : Tpm.Backend.kind;
  served : int;
  invalidations : int;
  migrations : int;
  storm_affected : int array;
  storm_detected : Sim.Time.t option array;
  mon_vids : string list;
  mon_double_adds : int;
  trace : string;
  max_queue_depth : int;
  mean_queue_depth : float;
}

let result (sh : t) =
  let gauge = Cluster.queue_gauge sh.cluster in
  {
    metrics = sh.metrics;
    backend = sh.kind;
    served = sh.served;
    invalidations = (Core.Verdict_cache.stats sh.cache).Core.Verdict_cache.invalidations;
    migrations = sh.migrations;
    storm_affected = sh.mon_affected;
    storm_detected = sh.mon_detect;
    mon_vids = (match sh.mon with None -> [] | Some mon -> Monitor.vids mon);
    mon_double_adds = sh.mon_double_adds;
    trace = Crypto.Sha256.finalize sh.trace;
    max_queue_depth = Sim.Stats.Gauge.peak gauge;
    mean_queue_depth =
      Sim.Stats.Gauge.time_weighted_mean gauge
        ~now:(Sim.Time.to_sec (Sim.Engine.now sh.engine));
  }
