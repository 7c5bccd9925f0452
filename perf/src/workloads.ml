(* The four workloads.  Each drives the system only through its public
   functions and times the calls from outside; each is deterministic given
   the seed, runs a closed loop with one client until the time budget is
   spent, and checks every output it times. *)

type scale = Full | Tiny

type params = {
  key_bits : int;
  servers : int;
  cold_vms_per_server : int;
  warm_vms_per_server : int;
  warm_reads : int;  (** cache-hit reads per round *)
  setups : int;  (** at least this many set-ups per run; [setup_s] is their median *)
  setup_seconds : float;  (** ... and as many more as fit in this long *)
  max_ops : int;  (** cap on timed ops, on top of the time budget *)
  fleet : seed:int -> domains:int -> Fleet.Driver.config;
  fuzz_ops : int;
  fleet_seeds : int;  (** seeds of the traced run's domains = 1 vs 2 rows *)
  engine_events : int;
  heap_size : int;
}

let kinds = [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |]

(* The monitored fleet of the monitor experiment, shortened to 10 s of
   arrivals plus 10 s of drain so one run takes a fraction of a second. *)
let full_fleet ~seed ~domains =
  let monitor =
    {
      Fleet.Monitor.default_config with
      tick = Sim.Time.ms 500;
      budget = Sim.Time.sec 5;
      recheck_budget = Sim.Time.ms 2500;
      lead = Sim.Time.ms 1250;
      storms = [ Fleet.Monitor.Rack_compromise { at = Sim.Time.sec 5; cluster = 3 } ];
    }
  in
  {
    Fleet.Driver.default_config with
    seed;
    servers = 500;
    vms = 10_000;
    as_count = 16;
    as_capacity = 16;
    queue_depth = 64;
    ttl = Sim.Time.sec 30;
    rate_per_s = 100.0;
    duration = Sim.Time.sec 10;
    drain = Sim.Time.sec 10;
    churn_period = Sim.Time.sec 1;
    hot_vms = 1024;
    epoch = Sim.Time.ms 250;
    domains;
    monitor = Some monitor;
  }

let tiny_fleet ~seed ~domains =
  let monitor =
    {
      Fleet.Monitor.default_config with
      tick = Sim.Time.ms 250;
      budget = Sim.Time.sec 2;
      recheck_budget = Sim.Time.sec 1;
      lead = Sim.Time.ms 500;
      storms = [ Fleet.Monitor.Rack_compromise { at = Sim.Time.sec 2; cluster = 1 } ];
    }
  in
  {
    Fleet.Driver.default_config with
    seed;
    servers = 32;
    vms = 80;
    as_count = 4;
    as_capacity = 2;
    queue_depth = 8;
    ttl = Sim.Time.sec 10;
    rate_per_s = 20.0;
    duration = Sim.Time.sec 4;
    drain = Sim.Time.sec 4;
    churn_period = Sim.Time.ms 500;
    hot_vms = 16;
    epoch = Sim.Time.ms 50;
    domains;
    monitor = Some monitor;
  }

let params = function
  | Full ->
      {
        key_bits = 1024;
        servers = 6;
        cold_vms_per_server = 3;
        warm_vms_per_server = 4;
        warm_reads = 8;
        setups = 3;
        setup_seconds = 2.;
        max_ops = max_int;
        fleet = full_fleet;
        fuzz_ops = 10;
        fleet_seeds = 10;
        engine_events = 100_000;
        heap_size = 65_536;
      }
  | Tiny ->
      {
        key_bits = 512;
        servers = 3;
        cold_vms_per_server = 1;
        warm_vms_per_server = 2;
        warm_reads = 2;
        setups = 1;
        setup_seconds = 0.;
        max_ops = 3;
        fleet = tiny_fleet;
        fuzz_ops = 3;
        fleet_seeds = 2;
        engine_events = 10_000;
        heap_size = 4096;
      }

(* What one run of a workload measured. *)
type result = {
  setup_s : float list;  (** one entry per set-up *)
  lat_ms : float list;  (** the timed op's latency, untraced ops only *)
  loop_s : float;  (** host seconds of the timed loop *)
  heap_mb : float;  (** median major-heap size over the timed ops *)
  delivered : int;  (** units of work the loop completed (README: throughput) *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** output gates *)
  layers : (string * float) list;  (** per-layer rows measured by a traced run *)
  fingerprint : string;  (** digest of every simulated output, host times excluded *)
  tracer : Tracer.t option;  (** the spans of a traced run *)
}

let now_ns = Tracer.now_ns
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

let major_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.

(* Closed loop: [step i] until [seconds] have passed (always once, never
   more than [max_ops] times).  Returns the loop's host seconds, the op
   count and the median major-heap size sampled after each op. *)
let run_loop ~seconds ~max_ops step =
  let t0 = now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let i = ref 0 and heap = ref [] in
  while !i < max_ops && (!i = 0 || now_ns () - t0 < budget) do
    step !i;
    heap := major_heap_mb () :: !heap;
    incr i
  done;
  (float_of_int (now_ns () - t0) /. 1e9, !i, Stats.median !heap)

(* In a traced run every other pair of ops is traced, so traced and untraced
   ops interleave under the same conditions and their latencies give the
   tracer's overhead. *)
let traced_op ~trace i = trace && i / 2 mod 2 = 0

(* Set up [p.setups] times, and more until [p.setup_seconds] have passed,
   so a cheap set-up's median is not one scheduler hiccup; the last set-up
   is the one the timed loop uses. *)
let timed_setups p f =
  let t_start = now_ns () in
  let rec go k acc =
    let t0 = now_ns () in
    let x = f () in
    let acc = (ms_since t0 /. 1e3) :: acc in
    if k >= p.setups && ms_since t_start >= p.setup_seconds *. 1e3 then (x, acc) else go (k + 1) acc
  in
  go 1 []

let memo_counts () =
  let m = Crypto.Rsa.Memo.shared () in
  (Crypto.Rsa.Memo.hits m, Crypto.Rsa.Memo.misses m)

let digest parts = Crypto.Sha256.hex (Crypto.Sha256.digest_list parts)

(* Every message the network carried, in order: what a pass-through tracer
   must leave byte-identical. *)
let wire_digest net =
  digest
    (List.concat_map
       (fun (m : Net.Network.message) -> [ m.src; m.dst; m.payload ])
       (Net.Network.recorded net))

(* {2 Attestation workloads} *)

let cloud_config p ~seed =
  {
    Core.Cloud.default_config with
    seed;
    num_servers = p.servers;
    num_attestation_servers = 2;
    key_bits = p.key_bits;
    backend_of = (fun i -> kinds.(i mod 3));
  }

(* Network address -> layer name for the tracer. *)
let hop_of cloud addr =
  if String.equal addr (Core.Controller.name (Core.Cloud.controller cloud)) then "controller"
  else if String.starts_with ~prefix:"attestation-server" addr then "as"
  else if String.starts_with ~prefix:"att:" addr then
    let server = String.sub addr 4 (String.length addr - 4) in
    match Option.bind (Core.Cloud.find_server cloud server) Hypervisor.Server.trust_backend with
    | Some b -> (
        match Tpm.Backend.kind b with
        | Tpm.Backend.Classic -> "client.classic"
        | Tpm.Backend.Evtpm -> "client.evtpm"
        | Tpm.Backend.Cvm_report -> "client.cvm")
    | None -> "client.none"
  else addr

let hop_layers = [ "customer"; "controller"; "as"; "client.classic"; "client.evtpm"; "client.cvm" ]
let wire_layers = [ "controller"; "as"; "client" ]

(* Per-layer rows from a tracer: mean self time and self allocation per
   traced op for every hop, wire counts per op, and the unattributed (hook)
   share.  Σ [<hop>.self_ms] + [trace.unattributed_ms] is the mean traced
   op latency. *)
let hop_rows tr =
  let ops = float_of_int (max 1 (Tracer.ops tr)) in
  let selves = Tracer.self_times tr in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 selves in
  let per_hop name =
    let mine = List.filter (fun s -> String.equal s.Tracer.span.Tracer.name name) selves in
    let ns = List.fold_left (fun acc s -> acc + s.Tracer.self_ns) 0 mine in
    let w = List.fold_left (fun acc s -> acc + s.Tracer.self_w) 0 mine in
    [
      (name ^ ".self_ms", float_of_int ns /. 1e6 /. ops);
      (name ^ ".alloc_kw", float_of_int w /. 1e3 /. ops);
    ]
  in
  let wire = Tracer.wire tr in
  let msgs = List.fold_left (fun acc (_, m, _) -> acc + m) 0 wire in
  let bytes_of prefix =
    List.fold_left
      (fun acc (layer, _, b) -> if String.starts_with ~prefix layer then acc + b else acc)
      0 wire
  in
  List.concat_map per_hop hop_layers
  @ [ ("net.msgs_per_op", float_of_int msgs /. ops) ]
  @ List.map
      (fun l -> ("net.bytes_per_op." ^ l, float_of_int (bytes_of l) /. ops))
      wire_layers
  @ [
      ("net.handshakes", float_of_int (Tracer.handshakes tr));
      ( "trace.unattributed_ms",
        float_of_int (sum (fun s -> s.Tracer.span.Tracer.hook_ns)) /. 1e6 /. ops );
    ]

let overhead_pct ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.0
  | _ ->
      let u = Stats.median untraced in
      100. *. (Stats.median traced -. u) /. u

(* Launch [n] small ubuntu VMs with every property; the placement policy
   (most free memory) spreads them round-robin over the servers, so VM [j]
   lands on server [j mod servers]. *)
let launch_vms cust n =
  List.init n (fun j ->
      match
        Core.Cloud.Customer.launch cust ~image:"ubuntu" ~flavor:"small"
          ~properties:Core.Property.all ()
      with
      | Ok info -> info.Core.Commands.vid
      | Error e ->
          Format.kasprintf failwith "launch %d failed: %a" j Core.Cloud.Customer.pp_error e)
  |> Array.of_list

(* [covert-channel-free] answers Unknown on an idle VM, and Unknown is
   never cached, so the attest workloads cycle through the other three. *)
let props =
  Core.Property.[| Startup_integrity; Runtime_integrity; Cpu_availability |]

let healthy_report ~vid ~property (r : Core.Report.t) =
  Core.Report.is_healthy r && String.equal r.Core.Report.vid vid
  && Core.Property.equal r.Core.Report.property property

let status_string (r : Core.Report.t) =
  Format.asprintf "%a" Core.Report.pp_status r.Core.Report.status

(* attest-cold: every call pays a full measurement round (session keygen,
   quote, three sign/verify hops over two secure channels).  Cache,
   batching and audit stay off. *)
let attest_cold ?(trace = false) p ~seed ~seconds =
  let n_vms = p.servers * p.cold_vms_per_server in
  let (cloud, cust, vids), setup_s =
    timed_setups p (fun () ->
        let cloud = Core.Cloud.build ~config:(cloud_config p ~seed) () in
        let cust = Core.Cloud.Customer.create cloud ~name:"perf-customer" in
        (cloud, cust, launch_vms cust n_vms))
  in
  let net = Core.Cloud.net cloud in
  let tr = Tracer.create ~hop_of:(hop_of cloud) () in
  let lat = ref [] and traced_lat = ref [] in
  let failed = ref 0 and delivered = ref 0 and outputs = ref [] in
  let h0, m0 = memo_counts () in
  let loop_s, attempted, heap_mb =
    run_loop ~seconds ~max_ops:p.max_ops (fun i ->
        let vid = vids.(i mod n_vms) and property = props.(i / n_vms mod 3) in
        let call () = Core.Cloud.Customer.attest cust ~vid ~property in
        let traced = traced_op ~trace i in
        if traced then Tracer.install tr net else Net.Network.clear_adversary net;
        let t0 = now_ns () in
        let r = if traced then Tracer.op tr ~name:"customer" call else call () in
        let ms = ms_since t0 in
        if traced then traced_lat := ms :: !traced_lat else lat := ms :: !lat;
        match r with
        | Ok report when healthy_report ~vid ~property report ->
            incr delivered;
            outputs := status_string report :: !outputs
        | Ok _ | Error _ -> incr failed)
  in
  Net.Network.clear_adversary net;
  let h1, m1 = memo_counts () in
  let layers =
    if not trace then []
    else
      hop_rows tr
      @ [
          ("crypto.memo_hits", float_of_int (h1 - h0));
          ("crypto.memo_misses", float_of_int (m1 - m0));
          ("trace.overhead_pct", overhead_pct ~traced:!traced_lat ~untraced:!lat);
        ]
  in
  {
    setup_s;
    lat_ms = (if !lat = [] then !traced_lat else !lat);
    loop_s;
    heap_mb;
    delivered = !delivered;
    attempted;
    failed = !failed;
    checks = [ ("every report Healthy and chain-verified", !failed = 0) ];
    layers;
    fingerprint = digest (wire_digest net :: List.rev !outputs);
    tracer = (if trace then Some tr else None);
  }

(* attest-warm: cache-hit reads beside batched, audited refreshes on the
   same controller.  Reads never reach the AS, so keygen work does not
   show in their latency; refreshes exercise the Merkle batch path, log
   appends and receipts. *)
let attest_warm ?(trace = false) p ~seed ~seconds =
  let per = p.warm_vms_per_server in
  let n_vms = p.servers * per in
  let drbg = Crypto.Drbg.create ~seed:("perf-warm|" ^ string_of_int seed) in
  let refresh ctl reqs =
    let cache = Core.Controller.verdict_cache ctl in
    List.iter
      (fun (r : Core.Protocol.attest_request) ->
        ignore (Core.Verdict_cache.invalidate cache ~vid:r.vid ~property:r.property : bool))
      reqs;
    Core.Controller.attest_many ctl reqs
  in
  (* Group g = (server g mod servers, property g / servers): the [per] VMs
     of one host and one property, which batching sends as one round. *)
  let group vids g =
    let server = g mod p.servers and property = props.(g / p.servers) in
    List.init per (fun k ->
        {
          Core.Protocol.vid = vids.(server + (k * p.servers));
          property;
          nonce = Crypto.Drbg.nonce drbg;
        })
  in
  let n_groups = p.servers * 3 in
  let group_ok results =
    List.for_all
      (fun ((q : Core.Protocol.attest_request), r) ->
        match r with
        | Ok (c : Core.Protocol.controller_report) ->
            healthy_report ~vid:q.vid ~property:q.property c.Core.Protocol.report
        | Error _ -> false)
      results
  in
  let (cloud, cust, vids, logs), setup_s =
    timed_setups p (fun () ->
        let cloud = Core.Cloud.build ~config:(cloud_config p ~seed) () in
        let cust = Core.Cloud.Customer.create cloud ~name:"perf-customer" in
        let vids = launch_vms cust n_vms in
        let logs = Core.Cloud.enable_audit ~checkpoint_interval:0 cloud in
        let ctl = Core.Cloud.controller cloud in
        Core.Controller.set_verdict_cache_ttl ctl (Sim.Time.sec 60);
        Core.Controller.set_batching ctl true;
        for g = 0 to n_groups - 1 do
          let results, _ = refresh ctl (group vids g) in
          if not (group_ok results) then failwith "warm-up refresh failed"
        done;
        (cloud, cust, vids, logs))
  in
  let ctl = Core.Cloud.controller cloud in
  let cache = Core.Controller.verdict_cache ctl in
  let net = Core.Cloud.net cloud in
  let prng = Sim.Prng.create seed in
  let tr = Tracer.create ~hop_of:(hop_of cloud) () in
  let appends () = List.fold_left (fun acc l -> acc + Audit.Log.appends l) 0 logs in
  let lat = ref [] and traced_lat = ref [] in
  let failed = ref 0 and delivered = ref 0 and attempted = ref 0 and reads = ref 0 in
  let outputs = ref [] and ledger_ms = ref [] and checkpoint_ms = ref [] in
  let appended = ref 0 and appends_bad = ref 0 in
  let hits0 = (Core.Verdict_cache.stats cache).Core.Verdict_cache.hits in
  let h0, m0 = memo_counts () in
  let traced_call ~traced ~name f = if traced then Tracer.op tr ~name f else f () in
  let loop_s, rounds, heap_mb =
    run_loop ~seconds ~max_ops:p.max_ops (fun round ->
        let traced = traced_op ~trace round in
        if traced then Tracer.install tr net else Net.Network.clear_adversary net;
        Core.Cloud.run_for cloud (Sim.Time.sec 1);
        let reqs = group vids (round mod n_groups) in
        let a0 = appends () in
        let results, ledger = traced_call ~traced ~name:"controller" (fun () -> refresh ctl reqs) in
        ledger_ms := Sim.Time.to_ms (Core.Ledger.total ledger) :: !ledger_ms;
        attempted := !attempted + List.length reqs;
        if group_ok results then delivered := !delivered + List.length reqs
        else failed := !failed + List.length reqs;
        appended := !appended + (appends () - a0);
        if appends () - a0 <> List.length reqs then incr appends_bad;
        let t0 = now_ns () in
        List.iter (fun l -> ignore (Audit.Log.checkpoint l : Audit.Sth.t)) logs;
        checkpoint_ms := ms_since t0 :: !checkpoint_ms;
        for _ = 1 to p.warm_reads do
          let k = Sim.Prng.int prng (n_vms * 3) in
          let vid = vids.(k mod n_vms) and property = props.(k / n_vms) in
          let before = (Core.Verdict_cache.stats cache).Core.Verdict_cache.hits in
          let t0 = now_ns () in
          let r =
            traced_call ~traced ~name:"customer" (fun () ->
                Core.Cloud.Customer.attest cust ~vid ~property)
          in
          let ms = ms_since t0 in
          if traced then traced_lat := ms :: !traced_lat else lat := ms :: !lat;
          incr attempted;
          incr reads;
          let hit = (Core.Verdict_cache.stats cache).Core.Verdict_cache.hits = before + 1 in
          match r with
          | Ok report when hit && healthy_report ~vid ~property report ->
              incr delivered;
              outputs := (vid ^ status_string report) :: !outputs
          | Ok _ | Error _ -> incr failed
        done)
  in
  Net.Network.clear_adversary net;
  let h1, m1 = memo_counts () in
  let hits = (Core.Verdict_cache.stats cache).Core.Verdict_cache.hits - hits0 in
  let layers =
    if not trace then []
    else
      let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
      hop_rows tr
      @ [
          ("crypto.memo_hits", float_of_int (h1 - h0));
          ("crypto.memo_misses", float_of_int (m1 - m0));
          ("audit.checkpoint_ms", Stats.median !checkpoint_ms /. float_of_int (List.length logs));
          ("audit.appends_per_round", float_of_int !appended /. float_of_int rounds);
          ("sim.refresh_ledger_ms", mean !ledger_ms);
          ("trace.overhead_pct", overhead_pct ~traced:!traced_lat ~untraced:!lat);
        ]
  in
  {
    setup_s;
    lat_ms = (if !lat = [] then !traced_lat else !lat);
    loop_s;
    heap_mb;
    delivered = !delivered;
    attempted = !attempted;
    failed = !failed;
    checks =
      [
        ("every report Healthy and chain-verified", !failed = 0);
        (Printf.sprintf "every read a cache hit (%d of %d)" hits !reads, hits = !reads);
        ("logs grow by one append per refreshed report", !appends_bad = 0);
      ];
    layers;
    fingerprint =
      digest
        ((wire_digest net :: List.rev_map (fun ms -> Printf.sprintf "%.3f" ms) !ledger_ms)
        @ List.rev !outputs);
    tracer = (if trace then Some tr else None);
  }

(* {2 Simulator workload} *)

let fleet_gates (r : Fleet.Driver.result) =
  r.Fleet.Driver.mon_scheduled
  = r.Fleet.Driver.mon_served + r.Fleet.Driver.mon_missed_periodic
    + r.Fleet.Driver.mon_missed_recheck + r.Fleet.Driver.mon_shed
  && r.Fleet.Driver.mon_entry_dups = 0
  && List.for_all
       (fun (s : Fleet.Driver.storm_outcome) -> s.Fleet.Driver.detected_at <> None)
       r.Fleet.Driver.mon_storms

(* fleet-monitor: pure simulator, no real crypto.  Engine, heap and
   epoch-barrier costs show here; inside, the simulated load is open-loop
   Poisson plus the monitor's probe stream.  The timed runs use one domain:
   on a shared two-CPU host, two domains wait at every barrier for the
   slower CPU, and the run-time quartile spread triples.  The domains = 2
   speed-up is a per-layer row of the traced run. *)
let fleet_monitor ?(trace = false) p ~seed ~seconds =
  (* Set-up: a warm-up run on a seed the timed loop never uses. *)
  let (), setup_s =
    timed_setups p (fun () -> ignore (Fleet.Driver.run (p.fleet ~seed:(seed - 1) ~domains:1)))
  in
  let lat = ref [] and traced_lat = ref [] in
  let failed = ref 0 and delivered = ref 0 and fps = ref [] in
  let loop_s, attempted, heap_mb =
    run_loop ~seconds ~max_ops:p.max_ops (fun i ->
        let t0 = now_ns () in
        let r = Fleet.Driver.run (p.fleet ~seed:(seed + i) ~domains:1) in
        let ms = ms_since t0 in
        if traced_op ~trace i then traced_lat := ms :: !traced_lat else lat := ms :: !lat;
        delivered := !delivered + r.Fleet.Driver.offered + r.Fleet.Driver.mon_scheduled;
        fps := Fleet.Driver.fingerprint r :: !fps;
        if not (fleet_gates r) then incr failed)
  in
  {
    setup_s;
    lat_ms = (if !lat = [] then !traced_lat else !lat);
    loop_s;
    heap_mb;
    delivered = !delivered;
    attempted;
    failed = !failed;
    checks = [ ("monitor conservation, no entry dups, storm detected", !failed = 0) ];
    layers =
      (if trace then [ ("trace.overhead_pct", overhead_pct ~traced:!traced_lat ~untraced:!lat) ]
       else []);
    fingerprint = digest (List.rev !fps);
    tracer = None;
  }

(* {2 Fuzzer workload} *)

(* Replays a campaign run performs: the run and its determinism twin, plus
   the fault-free batched/unbatched pair when the scenario toggles
   batching (no failures, so no shrinking). *)
let replays_of (r : Fuzz.Campaign.report) =
  (2 * r.Fuzz.Campaign.runs) + (2 * r.Fuzz.Campaign.batch_checked)

(* fuzz-campaign: dominated by rebuilding a 512-bit mixed-backend cloud for
   every replay — the cost a snapshot-and-fork fuzzer would remove.  A run
   makes two or four replays of one scenario (determinism twin, batching
   twins), so an op is one replay: the run's time over its replays. *)
let fuzz_campaign ?(trace = false) p ~seed ~seconds =
  let fuzz_config =
    (* the cloud every replay builds (Fuzz.Replay's configuration) *)
    {
      Core.Cloud.default_config with
      seed;
      key_bits = 512;
      num_attestation_servers = 2;
      backend_of = (fun i -> kinds.(i mod 3));
    }
  in
  let (), setup_s =
    timed_setups p (fun () -> ignore (Core.Cloud.build ~config:fuzz_config () : Core.Cloud.t))
  in
  let lat = ref [] and traced_lat = ref [] in
  let failed = ref 0 and replays = ref 0 and attests = ref 0 and outputs = ref [] in
  let loop_s, attempted, heap_mb =
    run_loop ~seconds ~max_ops:p.max_ops (fun k ->
        let t0 = now_ns () in
        let r = Fuzz.Campaign.campaign ~seed0:(seed + k) ~runs:1 ~ops_per_run:p.fuzz_ops () in
        let n = replays_of r in
        let ms = ms_since t0 /. float_of_int n in
        if traced_op ~trace k then traced_lat := ms :: !traced_lat else lat := ms :: !lat;
        replays := !replays + n;
        attests := !attests + r.Fuzz.Campaign.total_attests;
        outputs := Format.asprintf "%a" Fuzz.Campaign.pp_report r :: !outputs;
        if not (Fuzz.Campaign.clean r) then incr failed)
  in
  let runs = float_of_int (max 1 attempted) in
  let build_ms = Stats.median (List.map (fun s -> s *. 1e3) setup_s) in
  {
    setup_s;
    lat_ms = (if !lat = [] then !traced_lat else !lat);
    loop_s;
    heap_mb;
    delivered = !replays;
    attempted;
    failed = !failed;
    checks = [ ("every campaign clean", !failed = 0) ];
    layers =
      (if trace then
         [
           ("fuzz.cloud_build_ms", build_ms);
           ("fuzz.replay_ms", Stats.median (!lat @ !traced_lat));
           ("fuzz.replays_per_run", float_of_int !replays /. runs);
           ("fuzz.attests_per_run", float_of_int !attests /. runs);
           ("fuzz.build_share", build_ms /. Stats.median (!lat @ !traced_lat));
           ("trace.overhead_pct", overhead_pct ~traced:!traced_lat ~untraced:!lat);
         ]
       else []);
    fingerprint = digest (List.rev !outputs);
    tracer = None;
  }

(* Why each workload was chosen: BENCHMARK.json and perf/README.md. *)
type workload = {
  name : string;
  run : ?trace:bool -> params -> seed:int -> seconds:float -> result;
}

let all =
  [
    { name = "attest-cold"; run = attest_cold };
    { name = "attest-warm"; run = attest_warm };
    { name = "fleet-monitor"; run = fleet_monitor };
    { name = "fuzz-campaign"; run = fuzz_campaign };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
