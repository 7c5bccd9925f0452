(* Host wall-clock micro-benchmark of the RSA hot path: sign throughput at
   512/1024/2048 bits across the four (CRT, window) combinations, verify
   throughput, and the verification memo's hit/miss cost; plus the
   simulation heap and the Trust Module's quote signature and PCR extend.
   Unlike the simulated experiments this measures real CPU time — it is
   the artifact (BENCH_crypto.json) that backs the calibrated {!Core.Costs}
   constants, and its gate asserts the headline ratio (CRT must beat the
   classic full-width path) so an accidental regression to the slow path
   fails loudly. *)

type sign_row = {
  bits : int;
  crt : bool;
  window : bool;
  ops_per_s : float;
  ms_per_op : float;
  iters : int;
}

type verify_row = { v_bits : int; v_ops_per_s : float; v_ms_per_op : float; v_iters : int }

type memo_rates = {
  m_bits : int;
  hit_ops_per_s : float;
  miss_ops_per_s : float;
  hit_speedup : float;
}

(* Steady-state pop+push churn on the simulation kernel's binary heap —
   the engine's hottest non-crypto loop once the fleet driver schedules
   millions of events.  Tracked here so the bottom-up extraction path
   shows up in the same committed artifact as the RSA hot path. *)
type heap_row = {
  h_size : int;
  h_ops_per_s : float;
  h_ns_per_op : float;
  h_iters : int;
}

(* The Trust Module operations under every measurement: a quote signature
   with a 512-bit session key and one PCR extend. *)
type tpm_row = { t_op : string; t_ops_per_s : float; t_ns_per_op : float; t_iters : int }

type result = {
  scale : string;
  key_bits : int list;
  sign : sign_row list;
  verify : verify_row list;
  memo : memo_rates;
  heap : heap_row list;
  tpm : tpm_row list;
  (* speedup of (crt, window) over the classic full-width bit-at-a-time
     path, per key size — the calibration ratios. *)
  sign_speedup : (int * float) list;
  (* speedup of (crt, window) over the recorded seed implementation. *)
  seed_speedup : (int * float) list;
  crt_speedup_1024 : float;
}

let message = "crypto-bench attestation quote payload"

(* Sign throughput of the pre-CRT/pre-window implementation (full-width
   bit-at-a-time Montgomery ladder with per-step allocations), measured on
   the reference host with this same time-budget harness against the seed
   tree before the hot-path rewrite.  Recorded here so the committed
   artifact carries the before/after trajectory; the vs-seed ratios it
   yields are exact on the reference host and approximate elsewhere (both
   paths scale with the same limb arithmetic, so the ratio travels well). *)
let seed_sign_ops_per_s = [ (512, 765.4); (1024, 103.7); (2048, 15.8) ]

(* Repeat [f] until the budget elapses (always at least [min_iters] times)
   and return (seconds per op, iterations). *)
let time_per_op ~budget ~min_iters f =
  ignore (f ());
  (* warm-up: first call pays any lazy setup *)
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  while
    let el = Unix.gettimeofday () -. t0 in
    el < budget || !iters < min_iters
  do
    ignore (f ());
    incr iters
  done;
  let el = Unix.gettimeofday () -. t0 in
  (el /. float_of_int (max 1 !iters), !iters)

let scale_of_env () =
  match Sys.getenv_opt "CLOUDMONATT_CRYPTO_SCALE" with
  | Some "smoke" -> ("smoke", 0.02, 2)
  | _ -> ("full", 0.25, 5)

let run ~seed () =
  let scale, budget, min_iters = scale_of_env () in
  let key_bits = [ 512; 1024; 2048 ] in
  let keys =
    List.map
      (fun bits ->
        let drbg = Crypto.Drbg.create ~seed:(Printf.sprintf "crypto-bench|%d|%d" seed bits) in
        (bits, Crypto.Rsa.generate drbg ~bits))
      key_bits
  in
  let sign =
    List.concat_map
      (fun (bits, (kp : Crypto.Rsa.keypair)) ->
        List.map
          (fun (crt, window) ->
            let s_per_op, iters =
              time_per_op ~budget ~min_iters (fun () ->
                  Crypto.Rsa.sign ~crt ~window kp.secret message)
            in
            { bits; crt; window; ops_per_s = 1.0 /. s_per_op; ms_per_op = 1000.0 *. s_per_op; iters })
          [ (false, false); (false, true); (true, false); (true, true) ])
      keys
  in
  let verify =
    List.map
      (fun (bits, (kp : Crypto.Rsa.keypair)) ->
        let signature = Crypto.Rsa.sign kp.secret message in
        let s_per_op, iters =
          time_per_op ~budget ~min_iters (fun () ->
              Crypto.Rsa.verify kp.public ~signature message)
        in
        { v_bits = bits; v_ops_per_s = 1.0 /. s_per_op; v_ms_per_op = 1000.0 *. s_per_op; v_iters = iters })
      keys
  in
  let memo =
    let bits = 1024 in
    let kp = List.assoc bits keys in
    let signature = Crypto.Rsa.sign kp.secret message in
    let memo = Crypto.Rsa.Memo.create ~capacity:64 in
    ignore (Crypto.Rsa.verify_memo ~memo kp.public ~signature message);
    let hit_s, _ =
      time_per_op ~budget ~min_iters (fun () ->
          Crypto.Rsa.verify_memo ~memo kp.public ~signature message)
    in
    let miss_s, _ =
      time_per_op ~budget ~min_iters (fun () ->
          (* Clearing first forces the full lookup-miss + verify + insert
             path on every iteration. *)
          Crypto.Rsa.Memo.clear memo;
          Crypto.Rsa.verify_memo ~memo kp.public ~signature message)
    in
    {
      m_bits = bits;
      hit_ops_per_s = 1.0 /. hit_s;
      miss_ops_per_s = 1.0 /. miss_s;
      hit_speedup = miss_s /. hit_s;
    }
  in
  let heap =
    List.map
      (fun size ->
        let prng = Sim.Prng.create (seed + size) in
        let h = Sim.Heap.create ~cmp:compare in
        for _ = 1 to size do
          Sim.Heap.push h (Sim.Prng.int prng 1_000_000)
        done;
        (* One op = pop-min + push-random at steady size: the exact churn the
           event loop performs per scheduled event. *)
        let s_per_op, iters =
          time_per_op ~budget ~min_iters:(min_iters * 1000) (fun () ->
              ignore (Sim.Heap.pop h : int option);
              Sim.Heap.push h (Sim.Prng.int prng 1_000_000))
        in
        {
          h_size = size;
          h_ops_per_s = 1.0 /. s_per_op;
          h_ns_per_op = 1e9 *. s_per_op;
          h_iters = iters;
        })
      [ 1024; 65536 ]
  in
  let tpm =
    let tm = Tpm.Backend.create ~key_bits:512 Tpm.Backend.Classic ~seed:"bench-tm" () in
    let session = Tpm.Backend.begin_session tm in
    let pcrs = Tpm.Pcr.create ~count:16 in
    List.map
      (fun (op, f) ->
        let s_per_op, iters = time_per_op ~budget ~min_iters f in
        let t_ns_per_op = 1e9 *. s_per_op in
        { t_op = op; t_ops_per_s = 1.0 /. s_per_op; t_ns_per_op; t_iters = iters })
      [
        ( "tpm-quote-sign",
          fun () -> ignore (Tpm.Backend.sign_with_session tm session "measurements" : _ option) );
        ("pcr-extend", fun () -> ignore (Tpm.Pcr.extend pcrs 0 "measurement" : string));
      ]
  in
  let rate ~bits ~crt ~window =
    let r = List.find (fun r -> r.bits = bits && r.crt = crt && r.window = window) sign in
    r.ops_per_s
  in
  let sign_speedup =
    List.map
      (fun bits ->
        (bits, rate ~bits ~crt:true ~window:true /. rate ~bits ~crt:false ~window:false))
      key_bits
  in
  let seed_speedup =
    List.map
      (fun (bits, seed_rate) -> (bits, rate ~bits ~crt:true ~window:true /. seed_rate))
      seed_sign_ops_per_s
  in
  let crt_speedup_1024 =
    rate ~bits:1024 ~crt:true ~window:true /. rate ~bits:1024 ~crt:false ~window:true
  in
  { scale; key_bits; sign; verify; memo; heap; tpm; sign_speedup; seed_speedup; crt_speedup_1024 }

(* A regression to the slow path shows up here even when every
   correctness test passes. *)
let clean r = r.crt_speedup_1024 >= 1.2

let print r =
  Common.section
    (Printf.sprintf "RSA hot path, host wall clock (scale=%s)" r.scale);
  Printf.printf "  %-6s %-5s %-6s %12s %10s\n" "bits" "crt" "window" "ops/s" "ms/op";
  List.iter
    (fun s ->
      Printf.printf "  %-6d %-5b %-6b %12.1f %10.3f\n" s.bits s.crt s.window s.ops_per_s
        s.ms_per_op)
    r.sign;
  Printf.printf "  verify:\n";
  List.iter
    (fun v -> Printf.printf "  %-6d %24.1f %10.3f\n" v.v_bits v.v_ops_per_s v.v_ms_per_op)
    r.verify;
  Printf.printf "  memo (%d bits): hit %.0f ops/s, miss %.0f ops/s (%.0fx)\n" r.memo.m_bits
    r.memo.hit_ops_per_s r.memo.miss_ops_per_s r.memo.hit_speedup;
  Printf.printf "  sim heap pop+push churn:\n";
  List.iter
    (fun h ->
      Printf.printf "  %-6d %24.0f %10.1fns\n" h.h_size h.h_ops_per_s h.h_ns_per_op)
    r.heap;
  Printf.printf "  trust module:\n";
  List.iter
    (fun t -> Printf.printf "  %-14s %16.0f %10.1fns\n" t.t_op t.t_ops_per_s t.t_ns_per_op)
    r.tpm;
  List.iter
    (fun (bits, f) -> Printf.printf "  crt+window vs classic @%d: %.2fx\n" bits f)
    r.sign_speedup;
  List.iter
    (fun (bits, f) -> Printf.printf "  crt+window vs seed tree @%d: %.2fx\n" bits f)
    r.seed_speedup;
  Printf.printf "  crt vs non-crt (windowed) @1024: %.2fx\n" r.crt_speedup_1024

let to_json ~seed r =
  let open Json in
  Obj
    [
      ("seed", Int seed);
      ("scale", Str r.scale);
      ("key_bits", List (List.map (fun b -> Int b) r.key_bits));
      ( "sign",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("bits", Int s.bits);
                   ("crt", Bool s.crt);
                   ("window", Bool s.window);
                   ("ops_per_s", Float s.ops_per_s);
                   ("ms_per_op", Float s.ms_per_op);
                   ("iters", Int s.iters);
                 ])
             r.sign) );
      ( "verify",
        List
          (List.map
             (fun v ->
               Obj
                 [
                   ("bits", Int v.v_bits);
                   ("ops_per_s", Float v.v_ops_per_s);
                   ("ms_per_op", Float v.v_ms_per_op);
                   ("iters", Int v.v_iters);
                 ])
             r.verify) );
      ( "memo",
        Obj
          [
            ("bits", Int r.memo.m_bits);
            ("hit_ops_per_s", Float r.memo.hit_ops_per_s);
            ("miss_ops_per_s", Float r.memo.miss_ops_per_s);
            ("hit_speedup", Float r.memo.hit_speedup);
          ] );
      ( "heap",
        List
          (List.map
             (fun h ->
               Obj
                 [
                   ("size", Int h.h_size);
                   ("ops_per_s", Float h.h_ops_per_s);
                   ("ns_per_op", Float h.h_ns_per_op);
                   ("iters", Int h.h_iters);
                 ])
             r.heap) );
      ( "tpm",
        List
          (List.map
             (fun t ->
               Obj
                 [
                   ("op", Str t.t_op);
                   ("ops_per_s", Float t.t_ops_per_s);
                   ("ns_per_op", Float t.t_ns_per_op);
                   ("iters", Int t.t_iters);
                 ])
             r.tpm) );
      ( "seed_baseline",
        Obj
          (("note", Str "sign ops/s of the pre-CRT seed tree, reference host")
          :: List.map
               (fun (bits, rate) -> (Printf.sprintf "sign_ops_per_s_%d" bits, Float rate))
               seed_sign_ops_per_s) );
      ( "speedup",
        Obj
          (List.map
             (fun (bits, f) ->
               (Printf.sprintf "sign_crt_window_vs_classic_%d" bits, Float f))
             r.sign_speedup
          @ List.map
              (fun (bits, f) -> (Printf.sprintf "sign_crt_window_vs_seed_%d" bits, Float f))
              r.seed_speedup
          @ [ ("sign_crt_vs_noncrt_1024", Float r.crt_speedup_1024) ]) );
    ]
