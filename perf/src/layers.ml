(* Per-layer rows for a traced run.

   Primitive rows time public functions at the workload's parameters with
   a fixed DRBG seed.  The hop, wire, audit and trace rows come from the
   workload's own traced ops when it has any; otherwise from a probe: the
   tiny attest-cold and attest-warm workloads, traced, on the 512-bit
   three-backend cloud every fuzz replay builds. *)

open Workloads

(* Every per-layer metric, in print order, with its unit. *)
let metrics =
  List.concat_map
    (fun hop -> [ (hop ^ ".self_ms", "ms"); (hop ^ ".alloc_kw", "kw") ])
    hop_layers
  @ [ ("net.msgs_per_op", "count") ]
  @ List.map (fun l -> ("net.bytes_per_op." ^ l, "B")) wire_layers
  @ [
      ("net.handshakes", "count");
      ("crypto.rsa_keygen_ms", "ms");
      ("crypto.rsa_keygen512_ms", "ms");
      ("crypto.rsa_sign_ms", "ms");
      ("crypto.rsa_verify_ms", "ms");
      ("crypto.sha256_mb_s", "MB/s");
      ("crypto.chacha20_mb_s", "MB/s");
      ("crypto.hmac_mb_s", "MB/s");
      ("crypto.memo_hits", "count");
      ("crypto.memo_misses", "count");
      ("tpm.session_ms.classic", "ms");
      ("tpm.session_ms.evtpm", "ms");
      ("tpm.session_ms.cvm", "ms");
      ("tpm.quote_ms", "ms");
      ("tpm.quote_batch_ms", "ms");
      ("audit.checkpoint_ms", "ms");
      ("audit.appends_per_round", "count");
      ("sim.engine_event_ns", "ns");
      ("sim.heap_op_ns", "ns");
      ("sim.refresh_ledger_ms", "ms");
      ("fleet.run_d1_ms", "ms");
      ("fleet.run_d2_ms", "ms");
      ("fleet.speedup_d2", "ratio");
      ("fleet.alloc_mw_per_run", "Mw");
      ("fleet.epochs", "count");
      ("fleet.requests", "count");
      ("fleet.mon_dedups", "count");
      ("fleet.shed", "count");
      ("fuzz.cloud_build_ms", "ms");
      ("fuzz.replay_ms", "ms");
      ("fuzz.replays_per_run", "count");
      ("fuzz.build_share", "ratio");
      ("fuzz.attests_per_run", "count");
      ("trace.unattributed_ms", "ms");
      ("trace.overhead_pct", "%");
    ]

let time_ms f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  ms_since t0

let median_ms ~reps f = Stats.median (List.init reps (fun _ -> time_ms f))

(* Median over [reps] batches of [n] calls, per call. *)
let per_call_ms ~reps ~n f =
  median_ms ~reps (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int n

let seed_str = "perf-layers"

let crypto p =
  let drbg = Crypto.Drbg.create ~seed:seed_str in
  let kp = Crypto.Rsa.generate drbg ~bits:p.key_bits in
  let msg = "perf attestation quote payload" in
  let signature = Crypto.Rsa.sign kp.Crypto.Rsa.secret msg in
  let block = String.make 4096 'q' in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let mb_s f = 4096. /. 1e6 /. (per_call_ms ~reps:5 ~n:64 f /. 1e3) in
  [
    ( "crypto.rsa_keygen_ms",
      median_ms ~reps:7 (fun () -> Crypto.Rsa.generate drbg ~bits:p.key_bits) );
    ("crypto.rsa_keygen512_ms", median_ms ~reps:9 (fun () -> Crypto.Rsa.generate drbg ~bits:512));
    ( "crypto.rsa_sign_ms",
      per_call_ms ~reps:5 ~n:20 (fun () -> Crypto.Rsa.sign kp.Crypto.Rsa.secret msg) );
    ( "crypto.rsa_verify_ms",
      per_call_ms ~reps:5 ~n:100 (fun () ->
          Crypto.Rsa.verify kp.Crypto.Rsa.public ~signature msg) );
    ("crypto.sha256_mb_s", mb_s (fun () -> Crypto.Sha256.digest block));
    ("crypto.chacha20_mb_s", mb_s (fun () -> Crypto.Chacha20.xor ~key ~nonce block));
    ("crypto.hmac_mb_s", mb_s (fun () -> Crypto.Hmac.mac ~key block));
  ]

let tpm p =
  let key_bits = p.key_bits in
  let root = Tpm.Platform_root.create ~bits:key_bits ~seed:seed_str () in
  let devices =
    [
      ("classic", Tpm.Backend.classic (Tpm.Trust_module.create ~key_bits ~seed:seed_str ()));
      ("evtpm", Tpm.Backend.evtpm (Tpm.Evtpm.create ~key_bits ~seed:seed_str ()));
      ("cvm", Tpm.Backend.cvm (Tpm.Cvm_device.create ~key_bits ~root ~seed:seed_str ()));
    ]
  in
  let sessions =
    List.map
      (fun (name, dev) ->
        ("tpm.session_ms." ^ name, median_ms ~reps:3 (fun () -> Tpm.Backend.begin_session dev)))
      devices
  in
  let dev = List.assoc "classic" devices in
  let session = Tpm.Backend.begin_session dev in
  let leaves = List.init 4 (fun i -> Printf.sprintf "q3-%d" i) in
  sessions
  @ [
      ( "tpm.quote_ms",
        per_call_ms ~reps:5 ~n:10 (fun () -> Tpm.Backend.sign_with_session dev session "quote") );
      ( "tpm.quote_batch_ms",
        per_call_ms ~reps:5 ~n:10 (fun () ->
            Tpm.Backend.quote_batch dev session ~root:(Crypto.Merkle.root leaves) ~nonce:"n3") );
    ]

let sim p =
  let engine_ns =
    median_ms ~reps:3 (fun () ->
        let e = Sim.Engine.create () in
        for i = 1 to p.engine_events do
          ignore (Sim.Engine.schedule e ~at:i ignore : Sim.Engine.handle)
        done;
        Sim.Engine.run_until e (p.engine_events + 1))
    *. 1e6 /. float_of_int p.engine_events
  in
  let heap_ns =
    let prng = Sim.Prng.create 7 in
    let h = Sim.Heap.create ~cmp:Int.compare in
    for _ = 1 to p.heap_size do
      Sim.Heap.push h (Sim.Prng.int prng 1_000_000)
    done;
    let n = 100_000 in
    per_call_ms ~reps:3 ~n (fun () ->
        match Sim.Heap.pop h with
        | Some x -> Sim.Heap.push h (x + Sim.Prng.int prng 1000)
        | None -> ())
    *. 1e6
  in
  [ ("sim.engine_event_ns", engine_ns); ("sim.heap_op_ns", heap_ns) ]

(* The first fleet-monitor seeds at 1 and 2 domains.  The two runs of a
   seed must agree on every simulated output. *)
let fleet p ~seed =
  let seeds = p.fleet_seeds in
  let d1 = ref [] and d2 = ref [] and words = ref 0 and identical = ref true in
  let results = ref [] in
  for k = 0 to seeds - 1 do
    let w0 = Tracer.minor_words () and t0 = now_ns () in
    let r1 = Fleet.Driver.run (p.fleet ~seed:(seed + k) ~domains:1) in
    d1 := ms_since t0 :: !d1;
    words := !words + (Tracer.minor_words () - w0);
    let t0 = now_ns () in
    let r2 = Fleet.Driver.run (p.fleet ~seed:(seed + k) ~domains:2) in
    d2 := ms_since t0 :: !d2;
    if Fleet.Driver.fingerprint r1 <> Fleet.Driver.fingerprint r2 then identical := false;
    results := r1 :: !results
  done;
  let n = float_of_int seeds in
  let mean f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 !results) /. n in
  let m1 = Stats.median !d1 and m2 = Stats.median !d2 in
  ( [
      ("fleet.run_d1_ms", m1);
      ("fleet.run_d2_ms", m2);
      ("fleet.speedup_d2", m1 /. m2);
      ("fleet.alloc_mw_per_run", float_of_int !words /. 1e6 /. n);
      ("fleet.epochs", mean (fun r -> r.Fleet.Driver.epochs));
      ("fleet.requests", mean (fun r -> r.Fleet.Driver.offered + r.Fleet.Driver.mon_scheduled));
      ("fleet.mon_dedups", mean (fun r -> r.Fleet.Driver.mon_dedups));
      ( "fleet.shed",
        mean (fun r ->
            r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic
            + r.Fleet.Driver.shed_recheck)
      );
    ],
    !identical )

(* Fuzz rows from one traced campaign run. *)
let fuzz p ~seed =
  let run = fuzz_campaign ~trace:true { p with max_ops = 1 } ~seed ~seconds:60. in
  (List.filter (fun (k, _) -> String.starts_with ~prefix:"fuzz." k) run.layers, run.failed = 0)

(* The probe: the tiny attest workloads, traced, for the hop, wire, audit
   and trace rows of workloads that make no network calls of their own. *)
let probe ~seed =
  let tiny = params Tiny in
  let cold = attest_cold ~trace:true { tiny with max_ops = 6 } ~seed ~seconds:60. in
  let warm = attest_warm ~trace:true { tiny with max_ops = 2 } ~seed ~seconds:60. in
  (cold.layers @ warm.layers, cold.failed + warm.failed = 0)

(* Every per-layer row for a traced run of a workload that measured [own]
   itself: own rows win over the sweep's.  Also returns the sweep's output
   gates. *)
let rows p ~seed ~own =
  let fleet_rows, identical = fleet p ~seed in
  let fuzz_rows, fuzz_clean = fuzz p ~seed in
  let probe_rows, probe_ok = probe ~seed in
  let sweep = crypto p @ tpm p @ sim p @ fleet_rows @ fuzz_rows @ probe_rows in
  let value name =
    match List.assoc_opt name own with Some v -> Some v | None -> List.assoc_opt name sweep
  in
  ( List.filter_map (fun (name, _) -> Option.map (fun v -> (name, v)) (value name)) metrics,
    [
      ("fleet fingerprints equal at domains = 1 and 2", identical);
      ("layer-sweep campaign clean", fuzz_clean);
      ("probe reports Healthy", probe_ok);
    ] )
