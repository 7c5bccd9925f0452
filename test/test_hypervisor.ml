(* Tests for the hypervisor substrate: programs, credit scheduler, guest OS,
   images, flavors, servers. *)

open Hypervisor

let qtest = QCheck_alcotest.to_alcotest

(* --- Program ----------------------------------------------------------------- *)

let test_program_of_actions () =
  let p = Program.of_actions [ Program.Compute 5; Program.Sleep 3 ] in
  Alcotest.(check bool) "first" true (Program.next p ~now:0 = Program.Compute 5);
  Alcotest.(check bool) "second" true (Program.next p ~now:0 = Program.Sleep 3);
  Alcotest.(check bool) "then halts" true (Program.next p ~now:0 = Program.Halt)

let test_program_repeat () =
  let p = Program.of_actions ~repeat:true [ Program.Compute 1 ] in
  for _ = 1 to 5 do
    Alcotest.(check bool) "loops" true (Program.next p ~now:0 = Program.Compute 1)
  done

let test_program_empty_halts () =
  let p = Program.of_actions [] in
  Alcotest.(check bool) "halt" true (Program.next p ~now:0 = Program.Halt)

let test_program_compute_total () =
  let done_at = ref (-1) in
  let p =
    Program.compute_total ~chunk:(Sim.Time.ms 2) ~total:(Sim.Time.ms 5)
      ~on_done:(fun t -> done_at := t)
      ()
  in
  Alcotest.(check bool) "chunk 1" true (Program.next p ~now:0 = Program.Compute (Sim.Time.ms 2));
  Alcotest.(check bool) "chunk 2" true (Program.next p ~now:0 = Program.Compute (Sim.Time.ms 2));
  Alcotest.(check bool) "last partial chunk" true
    (Program.next p ~now:0 = Program.Compute (Sim.Time.ms 1));
  Alcotest.(check bool) "halts and reports" true (Program.next p ~now:77 = Program.Halt);
  Alcotest.(check int) "completion time" 77 !done_at

(* --- Scheduler helpers -------------------------------------------------------- *)

let make_sched ?(pcpus = 1) () =
  let engine = Sim.Engine.create () in
  (engine, Credit_scheduler.create ~engine ~pcpus ())

let busy_domain sched name ~pin =
  let d = Credit_scheduler.add_domain sched ~name ~weight:256 in
  ignore (Credit_scheduler.add_vcpu sched d ~pin (Program.busy_loop ()) : Credit_scheduler.vcpu);
  d

(* --- Scheduler: fairness and conservation -------------------------------------- *)

let test_sched_single_domain_full_cpu () =
  let engine, sched = make_sched () in
  let d = busy_domain sched "solo" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  Alcotest.(check int) "gets the whole CPU" (Sim.Time.sec 5)
    (Credit_scheduler.domain_runtime sched d)

let test_sched_equal_weights_fair () =
  let engine, sched = make_sched () in
  let d1 = busy_domain sched "a" ~pin:0 in
  let d2 = busy_domain sched "b" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let r1 = Sim.Time.to_sec (Credit_scheduler.domain_runtime sched d1) in
  let r2 = Sim.Time.to_sec (Credit_scheduler.domain_runtime sched d2) in
  Alcotest.(check bool) "fair within 5%" true (abs_float (r1 -. r2) < 0.5);
  Alcotest.(check bool) "work-conserving" true (r1 +. r2 > 9.99)

let test_sched_weights_proportional () =
  let engine, sched = make_sched () in
  let heavy = Credit_scheduler.add_domain sched ~name:"heavy" ~weight:512 in
  ignore (Credit_scheduler.add_vcpu sched heavy ~pin:0 (Program.busy_loop ()));
  let light = Credit_scheduler.add_domain sched ~name:"light" ~weight:256 in
  ignore (Credit_scheduler.add_vcpu sched light ~pin:0 (Program.busy_loop ()));
  Sim.Engine.run_until engine (Sim.Time.sec 30);
  let rh = Sim.Time.to_sec (Credit_scheduler.domain_runtime sched heavy) in
  let rl = Sim.Time.to_sec (Credit_scheduler.domain_runtime sched light) in
  let ratio = rh /. rl in
  Alcotest.(check bool)
    (Printf.sprintf "2:1 weights give ~2:1 time (got %.2f)" ratio)
    true
    (ratio > 1.6 && ratio < 2.5)

let test_sched_conservation () =
  let engine, sched = make_sched ~pcpus:2 () in
  ignore (busy_domain sched "a" ~pin:0);
  ignore (busy_domain sched "b" ~pin:0);
  ignore (busy_domain sched "c" ~pin:1);
  Sim.Engine.run_until engine (Sim.Time.sec 7);
  Alcotest.(check int) "domain runtime = pcpu busy time"
    (Credit_scheduler.busy_time sched)
    (Credit_scheduler.total_runtime sched);
  Alcotest.(check bool) "never exceeds capacity" true
    (Credit_scheduler.total_runtime sched <= 2 * Sim.Time.sec 7)

let test_sched_idle_cpu_unused () =
  let engine, sched = make_sched ~pcpus:2 () in
  let d = busy_domain sched "a" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 3);
  Alcotest.(check int) "only one pCPU used" (Sim.Time.sec 3)
    (Credit_scheduler.domain_runtime sched d)

let test_sched_duty_cycle_share () =
  let engine, sched = make_sched () in
  let d = Credit_scheduler.add_domain sched ~name:"duty" ~weight:256 in
  ignore
    (Credit_scheduler.add_vcpu sched d ~pin:0
       (Program.duty_cycle ~run:(Sim.Time.ms 2) ~idle:(Sim.Time.ms 8)));
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let share = Sim.Time.to_sec (Credit_scheduler.domain_runtime sched d) /. 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "20%% duty (got %.2f)" share)
    true
    (share > 0.18 && share < 0.22)

(* --- Scheduler: bursts, boost, steal -------------------------------------------- *)

let test_sched_burst_histogram_slices () =
  let engine, sched = make_sched () in
  let d1 = busy_domain sched "a" ~pin:0 in
  ignore (busy_domain sched "b" ~pin:0);
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let hist = Credit_scheduler.burst_counts d1 in
  let total = Array.fold_left ( + ) 0 hist in
  Alcotest.(check bool) "bursts recorded" true (total > 100);
  (* Contending CPU-bound domains run full 30 ms slices. *)
  Alcotest.(check bool) "30ms bin dominates" true (hist.(29) > total * 9 / 10)

let test_sched_burst_trace () =
  let engine, sched = make_sched () in
  let d = busy_domain sched "a" ~pin:0 in
  Credit_scheduler.set_burst_trace d true;
  Sim.Engine.run_until engine (Sim.Time.ms 100);
  let trace = Credit_scheduler.burst_trace d in
  Alcotest.(check bool) "trace collected" true (List.length trace >= 3);
  let starts = List.map fst trace in
  Alcotest.(check (list int)) "chronological" (List.sort compare starts) starts;
  Credit_scheduler.set_burst_trace d false;
  Alcotest.(check int) "disabled clears" 0 (List.length (Credit_scheduler.burst_trace d))

let test_sched_clear_burst_counts () =
  let engine, sched = make_sched () in
  let d = busy_domain sched "a" ~pin:0 in
  ignore (busy_domain sched "b" ~pin:0);
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Credit_scheduler.clear_burst_counts d;
  Alcotest.(check int) "cleared" 0 (Array.fold_left ( + ) 0 (Credit_scheduler.burst_counts d))

let test_sched_boost_preempts () =
  (* A mostly-sleeping vCPU that wakes with credits preempts a CPU hog:
     its wake-to-run latency is far below the 30 ms slice. *)
  let engine, sched = make_sched () in
  ignore (busy_domain sched "hog" ~pin:0);
  let d = Credit_scheduler.add_domain sched ~name:"sleeper" ~weight:256 in
  let wake_latencies = ref [] in
  let sleep_until = ref 0 in
  let prog =
    Program.make (fun ~now ->
        if now >= !sleep_until then begin
          if !sleep_until > 0 then wake_latencies := (now - !sleep_until) :: !wake_latencies;
          sleep_until := now + Sim.Time.ms 50;
          Program.Sleep (Sim.Time.ms 50)
        end
        else Program.Compute (Sim.Time.ms 1))
  in
  ignore (Credit_scheduler.add_vcpu sched d ~pin:0 prog);
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  Alcotest.(check bool) "several wakes" true (List.length !wake_latencies > 10);
  let avg =
    float_of_int (List.fold_left ( + ) 0 !wake_latencies)
    /. float_of_int (List.length !wake_latencies)
  in
  Alcotest.(check bool)
    (Printf.sprintf "boost latency well under a slice (got %.0f us)" avg)
    true (avg < 5_000.0)

let test_sched_waittime_accounting () =
  let engine, sched = make_sched () in
  let d1 = busy_domain sched "a" ~pin:0 in
  let d2 = busy_domain sched "b" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  (* Two contending CPU-bound domains: each runs ~5s and waits ~5s. *)
  let w1 = Sim.Time.to_sec (Credit_scheduler.domain_waittime sched d1) in
  let w2 = Sim.Time.to_sec (Credit_scheduler.domain_waittime sched d2) in
  Alcotest.(check bool) (Printf.sprintf "wait ~5s (got %.2f)" w1) true (abs_float (w1 -. 5.0) < 0.5);
  Alcotest.(check bool) (Printf.sprintf "wait ~5s (got %.2f)" w2) true (abs_float (w2 -. 5.0) < 0.5)

let test_sched_idle_domain_no_wait () =
  let engine, sched = make_sched () in
  ignore (busy_domain sched "hog" ~pin:0);
  let d = Credit_scheduler.add_domain sched ~name:"idle" ~weight:256 in
  ignore
    (Credit_scheduler.add_vcpu sched d ~pin:0
       (Program.duty_cycle ~run:(Sim.Time.us 100) ~idle:(Sim.Time.ms 100)));
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let wait = Sim.Time.to_sec (Credit_scheduler.domain_waittime sched d) in
  Alcotest.(check bool) (Printf.sprintf "near-zero wait (got %.3f)" wait) true (wait < 0.5)

(* --- Scheduler: IPIs, pause/resume, removal -------------------------------------- *)

let test_sched_ipi_wakes_sibling () =
  let engine, sched = make_sched ~pcpus:2 () in
  let d = Credit_scheduler.add_domain sched ~name:"pair" ~weight:256 in
  let woken = ref 0 in
  (* vCPU 0 sleeps forever; vCPU 1 IPIs it once after computing. *)
  let sleeper =
    Program.make (fun ~now:_ ->
        if !woken >= 0 then begin
          incr woken;
          Program.Sleep (Sim.Time.sec 3600)
        end
        else Program.Halt)
  in
  ignore (Credit_scheduler.add_vcpu sched d ~pin:0 sleeper);
  ignore
    (Credit_scheduler.add_vcpu sched d ~pin:1
       (Program.of_actions [ Program.Compute (Sim.Time.ms 1); Program.Ipi 0; Program.Halt ]));
  Sim.Engine.run_until engine (Sim.Time.sec 2);
  (* sleeper program consulted twice: initial dispatch and after IPI wake. *)
  Alcotest.(check int) "woken exactly once by IPI" 2 !woken

let test_sched_pause_stops_execution () =
  let engine, sched = make_sched () in
  let d = busy_domain sched "p" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Credit_scheduler.pause_domain sched d;
  let r0 = Credit_scheduler.domain_runtime sched d in
  Sim.Engine.run_until engine (Sim.Time.sec 3);
  Alcotest.(check int) "no progress while paused" r0 (Credit_scheduler.domain_runtime sched d);
  Alcotest.(check bool) "is_paused" true (Credit_scheduler.is_paused d);
  Credit_scheduler.resume_domain sched d;
  Sim.Engine.run_until engine (Sim.Time.sec 4);
  Alcotest.(check bool) "resumes" true (Credit_scheduler.domain_runtime sched d > r0)

let test_sched_pause_preserves_sleep () =
  let engine, sched = make_sched () in
  let d = Credit_scheduler.add_domain sched ~name:"s" ~weight:256 in
  let wakes = ref 0 in
  let prog =
    Program.make (fun ~now:_ ->
        incr wakes;
        Program.Sleep (Sim.Time.sec 2))
  in
  ignore (Credit_scheduler.add_vcpu sched d ~pin:0 prog);
  Sim.Engine.run_until engine (Sim.Time.ms 500);
  (* vCPU is mid-sleep; pause for a while, resume, sleep should continue. *)
  Credit_scheduler.pause_domain sched d;
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  Alcotest.(check int) "no wake while paused" 1 !wakes;
  Credit_scheduler.resume_domain sched d;
  Sim.Engine.run_until engine (Sim.Time.sec 13);
  Alcotest.(check bool) "sleep completed after resume" true (!wakes >= 2)

let test_sched_remove_domain () =
  let engine, sched = make_sched () in
  let d1 = busy_domain sched "gone" ~pin:0 in
  let d2 = busy_domain sched "stays" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Credit_scheduler.remove_domain sched d1;
  let r2 = Credit_scheduler.domain_runtime sched d2 in
  Sim.Engine.run_until engine (Sim.Time.sec 3);
  Alcotest.(check int) "domain list shrinks" 1 (List.length (Credit_scheduler.domains sched));
  (* The survivor now gets the whole CPU. *)
  Alcotest.(check int) "survivor gets full CPU" (r2 + Sim.Time.sec 2)
    (Credit_scheduler.domain_runtime sched d2)

let test_sched_bad_pin_rejected () =
  let _, sched = make_sched ~pcpus:2 () in
  let d = Credit_scheduler.add_domain sched ~name:"d" ~weight:256 in
  Alcotest.check_raises "bad pin" (Invalid_argument "Credit_scheduler.add_vcpu: bad pCPU pin")
    (fun () -> ignore (Credit_scheduler.add_vcpu sched d ~pin:7 (Program.busy_loop ())))

let test_sched_halted_vcpu_frees_cpu () =
  let engine, sched = make_sched () in
  let d1 = Credit_scheduler.add_domain sched ~name:"batch" ~weight:256 in
  ignore
    (Credit_scheduler.add_vcpu sched d1 ~pin:0
       (Program.of_actions [ Program.Compute (Sim.Time.sec 1); Program.Halt ]));
  let d2 = busy_domain sched "bg" ~pin:0 in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  Alcotest.(check int) "batch ran exactly its work" (Sim.Time.sec 1)
    (Credit_scheduler.domain_runtime sched d1);
  Alcotest.(check int) "background got the rest" (Sim.Time.sec 9)
    (Credit_scheduler.domain_runtime sched d2)

(* --- Scheduler property tests: random workloads keep the invariants --------------- *)

let random_program prng =
  Program.make (fun ~now:_ ->
      match Sim.Prng.int prng 10 with
      | 0 | 1 | 2 | 3 -> Program.Compute (Sim.Time.us (Sim.Prng.int_in prng 50 40_000))
      | 4 | 5 | 6 -> Program.Sleep (Sim.Time.us (Sim.Prng.int_in prng 50 60_000))
      | 7 -> Program.Ipi (Sim.Prng.int prng 3)
      | 8 -> Program.Compute (Sim.Time.us (Sim.Prng.int_in prng 1 100))
      | _ -> Program.Sleep (Sim.Time.ms (Sim.Prng.int_in prng 1 5)))

let sched_random_invariants =
  QCheck.Test.make ~name:"random workloads: conservation and capacity" ~count:25
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, pcpus) ->
      let prng = Sim.Prng.create seed in
      let engine = Sim.Engine.create () in
      let sched = Credit_scheduler.create ~engine ~pcpus () in
      let ndoms = 1 + Sim.Prng.int prng 4 in
      let doms =
        List.init ndoms (fun i ->
            let d =
              Credit_scheduler.add_domain sched
                ~name:(Printf.sprintf "d%d" i)
                ~weight:(256 * (1 + Sim.Prng.int prng 3))
            in
            let nv = 1 + Sim.Prng.int prng 3 in
            for _ = 1 to nv do
              ignore (Credit_scheduler.add_vcpu sched d (random_program prng)
                       : Credit_scheduler.vcpu)
            done;
            d)
      in
      let horizon = Sim.Time.sec 5 in
      Sim.Engine.run_until engine horizon;
      let total = Credit_scheduler.total_runtime sched in
      let busy = Credit_scheduler.busy_time sched in
      total = busy
      && total <= pcpus * horizon
      && List.for_all
           (fun d ->
             Credit_scheduler.domain_runtime sched d >= 0
             && Credit_scheduler.domain_runtime sched d <= pcpus * horizon
             && Credit_scheduler.domain_waittime sched d >= 0)
           doms)

let sched_pause_random =
  QCheck.Test.make ~name:"random pause/resume keeps runtime monotone & frozen" ~count:15
    QCheck.small_int
    (fun seed ->
      let prng = Sim.Prng.create (seed + 1000) in
      let engine = Sim.Engine.create () in
      let sched = Credit_scheduler.create ~engine ~pcpus:2 () in
      let d1 = Credit_scheduler.add_domain sched ~name:"a" ~weight:256 in
      ignore (Credit_scheduler.add_vcpu sched d1 (random_program prng) : Credit_scheduler.vcpu);
      let d2 = Credit_scheduler.add_domain sched ~name:"b" ~weight:256 in
      ignore (Credit_scheduler.add_vcpu sched d2 (random_program prng) : Credit_scheduler.vcpu);
      let ok = ref true in
      let last = ref 0 in
      for _round = 1 to 5 do
        Sim.Engine.run_until engine (Sim.Engine.now engine + Sim.Time.ms (Sim.Prng.int_in prng 50 500));
        let r = Credit_scheduler.domain_runtime sched d1 in
        if r < !last then ok := false;
        last := r;
        Credit_scheduler.pause_domain sched d1;
        let frozen = Credit_scheduler.domain_runtime sched d1 in
        Sim.Engine.run_until engine (Sim.Engine.now engine + Sim.Time.ms (Sim.Prng.int_in prng 50 300));
        if Credit_scheduler.domain_runtime sched d1 <> frozen then ok := false;
        Credit_scheduler.resume_domain sched d1;
        last := frozen
      done;
      !ok)

(* --- Cache ------------------------------------------------------------------------- *)

let make_cache ?(sets = 8) ?(ways = 2) () =
  let engine = Sim.Engine.create () in
  (engine, Cache.create ~engine ~sets ~ways ())

let test_cache_hit_miss () =
  let _, c = make_cache () in
  Alcotest.(check bool) "cold miss" true (Cache.access c ~owner:"a" ~set:0 ~tag:1);
  Alcotest.(check bool) "warm hit" false (Cache.access c ~owner:"a" ~set:0 ~tag:1);
  Alcotest.(check bool) "different tag misses" true (Cache.access c ~owner:"a" ~set:0 ~tag:2);
  Alcotest.(check bool) "different set misses" true (Cache.access c ~owner:"a" ~set:1 ~tag:1);
  Alcotest.(check int) "misses counted" 3 (Cache.misses c ~owner:"a")

let test_cache_lru_eviction () =
  let _, c = make_cache ~ways:2 () in
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:1 : bool);
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:2 : bool);
  (* Touch tag 1 so tag 2 is LRU, then insert tag 3. *)
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:1 : bool);
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:3 : bool);
  Alcotest.(check bool) "MRU survives" false (Cache.access c ~owner:"a" ~set:0 ~tag:1);
  Alcotest.(check bool) "LRU evicted" true (Cache.access c ~owner:"a" ~set:0 ~tag:2)

let test_cache_cross_owner_eviction () =
  let _, c = make_cache ~ways:2 () in
  Cache.fill_set c ~owner:"victim" ~set:3;
  Alcotest.(check int) "primed lines hit" 0 (Cache.probe c ~owner:"victim" ~sets:[ 3 ]);
  Cache.fill_set c ~owner:"attacker" ~set:3;
  Alcotest.(check int) "probe sees full eviction" 2 (Cache.probe c ~owner:"victim" ~sets:[ 3 ])

let test_cache_miss_windows () =
  let engine, c = make_cache () in
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:0 : bool);
  Sim.Engine.run_until engine (Sim.Time.ms 25);
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:1 : bool);
  ignore (Cache.access c ~owner:"a" ~set:0 ~tag:2 : bool);
  let w = Cache.miss_windows c ~owner:"a" ~since:0 in
  Alcotest.(check (array int)) "per-window counts" [| 1; 0; 2 |] w;
  let w2 = Cache.miss_windows c ~owner:"a" ~since:(Sim.Time.ms 20) in
  Alcotest.(check (array int)) "since offset" [| 2 |] w2;
  Alcotest.(check (array int)) "unknown owner" [| 0; 0; 0 |]
    (Cache.miss_windows c ~owner:"zz" ~since:0)

let test_cache_forget_owner () =
  let _, c = make_cache () in
  Cache.fill_set c ~owner:"gone" ~set:0;
  Cache.forget_owner c "gone";
  Alcotest.(check int) "counters cleared" 0 (Cache.misses c ~owner:"gone");
  (* Lines are gone too: a re-fill misses everywhere. *)
  Alcotest.(check int) "lines dropped" 2 (Cache.probe c ~owner:"gone" ~sets:[ 0 ])

let test_cache_bounds () =
  let _, c = make_cache () in
  Alcotest.check_raises "set bounds" (Invalid_argument "Cache: set index out of range")
    (fun () -> ignore (Cache.access c ~owner:"a" ~set:99 ~tag:0))

(* --- Guest OS ---------------------------------------------------------------------- *)

let test_guest_visibility () =
  let g = Guest_os.create ~init:[ "init"; "sshd" ] () in
  let m = Guest_os.spawn g ~hidden:true "rootkit" in
  ignore (Guest_os.spawn g "nginx" : Guest_os.process);
  Alcotest.(check (list string)) "visible excludes hidden" [ "init"; "sshd"; "nginx" ]
    (Guest_os.visible_tasks g);
  Alcotest.(check (list string)) "kernel sees all" [ "init"; "sshd"; "rootkit"; "nginx" ]
    (Guest_os.kernel_tasks g);
  Alcotest.(check bool) "hidden flag" true m.Guest_os.hidden

let test_guest_hide_existing () =
  let g = Guest_os.create ~init:[ "init" ] () in
  let p = Guest_os.spawn g "miner" in
  Alcotest.(check bool) "hide succeeds" true (Guest_os.hide g p.Guest_os.pid);
  Alcotest.(check (list string)) "now hidden" [ "init" ] (Guest_os.visible_tasks g);
  Alcotest.(check bool) "hide unknown pid" false (Guest_os.hide g 9999)

let test_guest_kill () =
  let g = Guest_os.create ~init:[ "init" ] () in
  let p = Guest_os.spawn g "x" in
  Alcotest.(check bool) "kill" true (Guest_os.kill g p.Guest_os.pid);
  Alcotest.(check bool) "gone" false (List.mem "x" (Guest_os.kernel_tasks g));
  Alcotest.(check bool) "kill twice" false (Guest_os.kill g p.Guest_os.pid)

let test_guest_ima_log () =
  let g = Guest_os.create ~init:[ "init"; "sshd" ] () in
  ignore (Guest_os.spawn g ~hidden:true "rootkit" : Guest_os.process);
  let log = Guest_os.ima_log g in
  Alcotest.(check int) "all processes measured (hidden included)" 3 (List.length log);
  Alcotest.(check (option string)) "pristine hash recorded"
    (Some (Guest_os.pristine_hash "sshd"))
    (List.assoc_opt "sshd" log)

let test_guest_trojan_binary_hash () =
  let g = Guest_os.create ~init:[] () in
  let clean = Guest_os.spawn g "nginx" in
  let trojan = Guest_os.spawn g ~binary:"evil" "nginx" in
  Alcotest.(check bool) "same name, different hash" false
    (String.equal clean.Guest_os.binary_hash trojan.Guest_os.binary_hash);
  Alcotest.(check string) "clean one is pristine" (Guest_os.pristine_hash "nginx")
    clean.Guest_os.binary_hash

let test_guest_snapshot_independent () =
  let g = Guest_os.create ~init:[ "init" ] () in
  let snap = Guest_os.snapshot g in
  ignore (Guest_os.spawn g "later" : Guest_os.process);
  Alcotest.(check bool) "snapshot unaffected" false
    (List.mem "later" (Guest_os.kernel_tasks snap))

(* --- Image / Flavor ------------------------------------------------------------------ *)

let test_image_tamper_changes_hash () =
  let img = Image.make ~name:"test" ~size_mb:100 in
  let bad = Image.tamper img ~payload:"evil" in
  Alcotest.(check bool) "hash changes" false (String.equal (Image.hash img) (Image.hash bad));
  Alcotest.(check bool) "pristine" true (Image.is_pristine img);
  Alcotest.(check bool) "not pristine" false (Image.is_pristine bad);
  Alcotest.(check string) "same name" "test" (Image.name bad)

let test_image_golden_hashes () =
  List.iter
    (fun img ->
      Alcotest.(check string)
        (Image.name img ^ " golden")
        (Image.hash img)
        (Image.golden_hash ~name:(Image.name img)))
    [ Image.cirros; Image.fedora; Image.ubuntu ]

let test_flavor_lookup () =
  Alcotest.(check bool) "small" true (Flavor.of_name "small" = Some Flavor.small);
  Alcotest.(check bool) "unknown" true (Flavor.of_name "xxl" = None);
  Alcotest.(check int) "large vcpus" 4 Flavor.large.Flavor.vcpus

(* --- Server ----------------------------------------------------------------------------- *)

let make_server ?(secure = true) ?(mem_mb = 8192) () =
  let engine = Sim.Engine.create () in
  ( engine,
    Server.create ~engine ~name:"s1" ~pcpus:2 ~mem_mb ~secure ~key_bits:512 ~seed:"t" () )

let test_server_launch_and_memory () =
  let _, server = make_server () in
  let vm = Vm.make ~vid:"v1" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.small () in
  (match Server.launch server vm with
  | Ok inst ->
      Alcotest.(check string) "image hash recorded" (Image.hash Image.cirros)
        inst.Server.image_hash_at_launch
  | Error `Insufficient_memory -> Alcotest.fail "launch failed");
  Alcotest.(check int) "memory accounted" (8192 - 2048) (Server.mem_free_mb server);
  Alcotest.(check bool) "find" true (Server.find server "v1" <> None);
  Alcotest.(check int) "instances" 1 (List.length (Server.instances server))

let test_server_memory_exhaustion () =
  let _, server = make_server ~mem_mb:3000 () in
  let vm1 = Vm.make ~vid:"v1" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.small () in
  let vm2 = Vm.make ~vid:"v2" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.small () in
  (match Server.launch server vm1 with
  | Ok _ -> ()
  | Error `Insufficient_memory -> Alcotest.fail "first should fit");
  (match Server.launch server vm2 with
  | Error `Insufficient_memory -> ()
  | Ok _ -> Alcotest.fail "second should not fit");
  Alcotest.(check bool) "destroy frees" true (Server.destroy server "v1");
  (match Server.launch server vm2 with
  | Ok _ -> ()
  | Error `Insufficient_memory -> Alcotest.fail "should fit after destroy")

let test_server_suspend_resume () =
  let engine, server = make_server () in
  let vm =
    Vm.make ~vid:"v1" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.small
      ~programs:(fun () -> [ Program.busy_loop () ])
      ()
  in
  let inst = Result.get_ok (Server.launch server vm) in
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Alcotest.(check bool) "suspend" true (Server.suspend server "v1");
  Alcotest.(check bool) "suspend twice fails" false (Server.suspend server "v1");
  let r0 = Credit_scheduler.domain_runtime (Server.scheduler server) inst.Server.domain in
  Sim.Engine.run_until engine (Sim.Time.sec 2);
  Alcotest.(check int) "frozen" r0
    (Credit_scheduler.domain_runtime (Server.scheduler server) inst.Server.domain);
  Alcotest.(check bool) "resume" true (Server.resume server "v1")

let test_server_detach () =
  let _, server = make_server () in
  let vm = Vm.make ~vid:"v1" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.small () in
  ignore (Result.get_ok (Server.launch server vm) : Server.instance);
  (match Server.detach server "v1" with
  | Some inst -> Alcotest.(check string) "vm travels" "v1" inst.Server.vm.Vm.vid
  | None -> Alcotest.fail "detach failed");
  Alcotest.(check bool) "gone" true (Server.find server "v1" = None);
  Alcotest.(check int) "memory freed" 8192 (Server.mem_free_mb server)

let test_server_measured_boot () =
  let _, server = make_server () in
  (match Server.trust_backend server with
  | None -> Alcotest.fail "secure server has a trust module"
  | Some tm ->
      Alcotest.(check string) "pristine boot matches golden"
        Server.golden_platform_measurement
        (Tpm.Pcr.composite (Tpm.Backend.pcrs tm) [ 0; 1 ]));
  let engine2 = Sim.Engine.create () in
  let corrupted =
    Server.create ~engine:engine2 ~name:"bad" ~platform:Server.corrupted_platform
      ~key_bits:512 ~seed:"t" ()
  in
  match Server.trust_backend corrupted with
  | None -> Alcotest.fail "trust module expected"
  | Some tm ->
      Alcotest.(check bool) "corrupted boot differs" false
        (String.equal Server.golden_platform_measurement
           (Tpm.Pcr.composite (Tpm.Backend.pcrs tm) [ 0; 1 ]))

let test_server_insecure_has_no_tm () =
  let _, server = make_server ~secure:false () in
  Alcotest.(check bool) "no trust module" true (Server.trust_backend server = None);
  Alcotest.(check bool) "not secure" false (Server.is_secure server);
  Alcotest.(check (list string)) "no capabilities" [] (Server.capabilities server)

let test_server_per_vcpu_pins () =
  let engine, server = make_server () in
  let seen = ref [] in
  let prog id =
    Program.make (fun ~now:_ ->
        if not (List.mem id !seen) then seen := id :: !seen;
        Program.Compute (Sim.Time.ms 10))
  in
  let vm =
    Vm.make ~vid:"v1" ~owner:"a" ~image:Image.cirros ~flavor:Flavor.medium
      ~programs:(fun () -> [ prog 0; prog 1 ])
      ()
  in
  ignore (Result.get_ok (Server.launch server ~pins:[ Some 0; Some 1 ] vm) : Server.instance);
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  let inst = Option.get (Server.find server "v1") in
  (* Both vCPUs on different pCPUs run in parallel: domain runtime is ~2x
     wall time. *)
  Alcotest.(check bool) "parallel execution" true
    (Credit_scheduler.domain_runtime (Server.scheduler server) inst.Server.domain
    > Sim.Time.ms 1900)

let () =
  Alcotest.run "hypervisor"
    [
      ( "program",
        [
          Alcotest.test_case "of_actions" `Quick test_program_of_actions;
          Alcotest.test_case "repeat" `Quick test_program_repeat;
          Alcotest.test_case "empty halts" `Quick test_program_empty_halts;
          Alcotest.test_case "compute_total" `Quick test_program_compute_total;
        ] );
      ( "scheduler-fairness",
        [
          Alcotest.test_case "solo gets full CPU" `Quick test_sched_single_domain_full_cpu;
          Alcotest.test_case "equal weights fair" `Quick test_sched_equal_weights_fair;
          Alcotest.test_case "weights proportional" `Quick test_sched_weights_proportional;
          Alcotest.test_case "conservation" `Quick test_sched_conservation;
          Alcotest.test_case "idle cpu unused" `Quick test_sched_idle_cpu_unused;
          Alcotest.test_case "duty cycle share" `Quick test_sched_duty_cycle_share;
        ] );
      ( "scheduler-measurement",
        [
          Alcotest.test_case "burst histogram slices" `Quick test_sched_burst_histogram_slices;
          Alcotest.test_case "burst trace" `Quick test_sched_burst_trace;
          Alcotest.test_case "clear burst counts" `Quick test_sched_clear_burst_counts;
          Alcotest.test_case "boost preempts" `Quick test_sched_boost_preempts;
          Alcotest.test_case "waittime accounting" `Quick test_sched_waittime_accounting;
          Alcotest.test_case "idle domain no wait" `Quick test_sched_idle_domain_no_wait;
        ] );
      ( "scheduler-lifecycle",
        [
          Alcotest.test_case "IPI wakes sibling" `Quick test_sched_ipi_wakes_sibling;
          Alcotest.test_case "pause stops execution" `Quick test_sched_pause_stops_execution;
          Alcotest.test_case "pause preserves sleep" `Quick test_sched_pause_preserves_sleep;
          Alcotest.test_case "remove domain" `Quick test_sched_remove_domain;
          Alcotest.test_case "bad pin rejected" `Quick test_sched_bad_pin_rejected;
          Alcotest.test_case "halted vcpu frees cpu" `Quick test_sched_halted_vcpu_frees_cpu;
        ] );
      ( "scheduler-properties",
        [ qtest sched_random_invariants; qtest sched_pause_random ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "cross-owner eviction" `Quick test_cache_cross_owner_eviction;
          Alcotest.test_case "miss windows" `Quick test_cache_miss_windows;
          Alcotest.test_case "forget owner" `Quick test_cache_forget_owner;
          Alcotest.test_case "bounds" `Quick test_cache_bounds;
        ] );
      ( "guest-os",
        [
          Alcotest.test_case "visibility" `Quick test_guest_visibility;
          Alcotest.test_case "hide existing" `Quick test_guest_hide_existing;
          Alcotest.test_case "kill" `Quick test_guest_kill;
          Alcotest.test_case "ima log" `Quick test_guest_ima_log;
          Alcotest.test_case "trojan binary hash" `Quick test_guest_trojan_binary_hash;
          Alcotest.test_case "snapshot" `Quick test_guest_snapshot_independent;
        ] );
      ( "image-flavor",
        [
          Alcotest.test_case "tamper changes hash" `Quick test_image_tamper_changes_hash;
          Alcotest.test_case "golden hashes" `Quick test_image_golden_hashes;
          Alcotest.test_case "flavor lookup" `Quick test_flavor_lookup;
        ] );
      ( "server",
        [
          Alcotest.test_case "launch and memory" `Quick test_server_launch_and_memory;
          Alcotest.test_case "memory exhaustion" `Quick test_server_memory_exhaustion;
          Alcotest.test_case "suspend/resume" `Quick test_server_suspend_resume;
          Alcotest.test_case "detach" `Quick test_server_detach;
          Alcotest.test_case "measured boot" `Quick test_server_measured_boot;
          Alcotest.test_case "insecure server" `Quick test_server_insecure_has_no_tm;
          Alcotest.test_case "per-vcpu pins" `Quick test_server_per_vcpu_pins;
        ] );
    ]
