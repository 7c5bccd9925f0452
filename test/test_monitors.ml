(* Tests for the Monitor Module: measurement codecs, VMI, VMM profiler,
   integrity unit and the monitor kernel. *)

open Monitors

let qtest = QCheck_alcotest.to_alcotest

(* --- Measurement codecs ------------------------------------------------------- *)

let request_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Measurement.Platform_integrity;
      QCheck.Gen.return Measurement.Vm_image_integrity;
      QCheck.Gen.return Measurement.Task_list;
      QCheck.Gen.return Measurement.Cpu_burst_histogram;
      QCheck.Gen.map (fun w -> Measurement.Cpu_time w) (QCheck.Gen.int_range 0 10_000_000);
      QCheck.Gen.return Measurement.Cache_miss_pattern;
      QCheck.Gen.return Measurement.Ima_log;
    ]

let requests_roundtrip =
  QCheck.Test.make ~name:"requests roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) request_gen))
    (fun rs -> Measurement.decode_requests (Measurement.encode_requests rs) = Some rs)

let value_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun s -> Measurement.Measured_platform s) string;
      map (fun s -> Measurement.Measured_image s) string;
      map2
        (fun kernel visible -> Measurement.Measured_tasks { kernel; visible })
        (list_size (int_range 0 5) string)
        (list_size (int_range 0 5) string);
      map
        (fun a -> Measurement.Measured_histogram (Array.map abs a))
        (array_size (int_range 0 30) nat);
      map2
        (fun (vtime, steal) (window, vcpus) ->
          Measurement.Measured_cpu { vtime; steal; window; vcpus })
        (pair nat nat)
        (pair nat (int_range 0 64));
      map
        (fun a -> Measurement.Measured_miss_windows (Array.map abs a))
        (array_size (int_range 0 40) nat);
      map
        (fun entries -> Measurement.Measured_ima entries)
        (list_size (int_range 0 6) (pair string string));
    ]

let values_roundtrip =
  QCheck.Test.make ~name:"values roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) value_gen))
    (fun vs -> Measurement.decode_values (Measurement.encode_values vs) = Some vs)

let test_decode_garbage () =
  Alcotest.(check bool) "garbage requests" true (Measurement.decode_requests "junk" = None);
  Alcotest.(check bool) "garbage values" true (Measurement.decode_values "junk" = None)

(* --- Test rig -------------------------------------------------------------------- *)

let make_rig () =
  let engine = Sim.Engine.create () in
  let server =
    Hypervisor.Server.create ~engine ~name:"s" ~pcpus:2 ~key_bits:512 ~seed:"mon" ()
  in
  let vm =
    Hypervisor.Vm.make ~vid:"v1" ~owner:"a" ~image:Hypervisor.Image.cirros
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () -> [ Hypervisor.Program.busy_loop () ])
      ()
  in
  let inst = Result.get_ok (Hypervisor.Server.launch server ~pin:0 vm) in
  (engine, server, inst)

(* --- VMI tool ---------------------------------------------------------------------- *)

let test_vmi_sees_hidden () =
  let _, server, inst = make_rig () in
  ignore (Hypervisor.Guest_os.spawn inst.vm.guest ~hidden:true "stealth" : Hypervisor.Guest_os.process);
  let kernel = Option.get (Vmi_tool.kernel_task_list server ~vid:"v1") in
  let visible = Option.get (Vmi_tool.guest_reported_task_list server ~vid:"v1") in
  Alcotest.(check bool) "VMI sees it" true (List.mem "stealth" kernel);
  Alcotest.(check bool) "guest does not" false (List.mem "stealth" visible)

let test_vmi_unknown_vm () =
  let _, server, _ = make_rig () in
  Alcotest.(check bool) "unknown VM" true (Vmi_tool.kernel_task_list server ~vid:"nope" = None)

(* --- VMM profiler ------------------------------------------------------------------- *)

let test_profiler_window () =
  let engine, server, _ = make_rig () in
  let prof = Vmm_profile.create server in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  Vmm_profile.sample_now prof;
  match Vmm_profile.cpu_usage prof ~vid:"v1" ~window:(Sim.Time.sec 2) with
  | None -> Alcotest.fail "expected usage"
  | Some (run, steal) ->
      (* Solo busy VM: ran the whole window, no steal. *)
      Alcotest.(check bool)
        (Printf.sprintf "ran ~2s (got %.2f)" (Sim.Time.to_sec run))
        true
        (abs_float (Sim.Time.to_sec run -. 2.0) < 0.2);
      Alcotest.(check bool) "no steal" true (Sim.Time.to_sec steal < 0.1)

let test_profiler_contended () =
  let engine, server, _ = make_rig () in
  let co =
    Hypervisor.Vm.make ~vid:"v2" ~owner:"b" ~image:Hypervisor.Image.cirros
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () -> [ Hypervisor.Program.busy_loop () ])
      ()
  in
  ignore (Result.get_ok (Hypervisor.Server.launch server ~pin:0 co) : Hypervisor.Server.instance);
  let prof = Vmm_profile.create server in
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  Vmm_profile.sample_now prof;
  match Vmm_profile.cpu_usage prof ~vid:"v1" ~window:(Sim.Time.sec 4) with
  | None -> Alcotest.fail "expected usage"
  | Some (run, steal) ->
      Alcotest.(check bool)
        (Printf.sprintf "fair share ~2s (got %.2f)" (Sim.Time.to_sec run))
        true
        (abs_float (Sim.Time.to_sec run -. 2.0) < 0.3);
      Alcotest.(check bool)
        (Printf.sprintf "steal ~2s (got %.2f)" (Sim.Time.to_sec steal))
        true
        (abs_float (Sim.Time.to_sec steal -. 2.0) < 0.3)

let test_profiler_unknown_vm () =
  let _, server, _ = make_rig () in
  let prof = Vmm_profile.create server in
  Alcotest.(check bool) "unknown" true (Vmm_profile.cpu_time prof ~vid:"zz" ~window:1000 = None)

(* --- Integrity unit -------------------------------------------------------------------- *)

let test_integrity_platform () =
  let _, server, _ = make_rig () in
  Alcotest.(check (option string)) "matches golden"
    (Some Hypervisor.Server.golden_platform_measurement)
    (Integrity_unit.platform_measurement server)

let test_integrity_image () =
  let _, server, _ = make_rig () in
  Alcotest.(check (option string)) "image hash"
    (Some (Hypervisor.Image.hash Hypervisor.Image.cirros))
    (Integrity_unit.image_measurement server ~vid:"v1")

let test_integrity_insecure_server () =
  let engine = Sim.Engine.create () in
  let server =
    Hypervisor.Server.create ~engine ~name:"ns" ~secure:false ~key_bits:512 ~seed:"x" ()
  in
  Alcotest.(check bool) "no platform measurement" true
    (Integrity_unit.platform_measurement server = None)

(* --- Monitor kernel --------------------------------------------------------------------- *)

let test_kernel_collect_all () =
  let engine, server, _ = make_rig () in
  let kernel = Monitor_kernel.create server in
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  match
    Monitor_kernel.collect kernel ~vid:"v1"
      [
        Measurement.Platform_integrity;
        Measurement.Vm_image_integrity;
        Measurement.Task_list;
        Measurement.Cpu_burst_histogram;
        Measurement.Cpu_time (Sim.Time.sec 1);
      ]
  with
  | Error _ -> Alcotest.fail "collect failed"
  | Ok values ->
      Alcotest.(check int) "five values in order" 5 (List.length values);
      (match values with
      | [ Measurement.Measured_platform _; Measurement.Measured_image _;
          Measurement.Measured_tasks _; Measurement.Measured_histogram _;
          Measurement.Measured_cpu _ ] ->
          ()
      | _ -> Alcotest.fail "wrong shapes")

let test_kernel_unknown_vm () =
  let _, server, _ = make_rig () in
  let kernel = Monitor_kernel.create server in
  match Monitor_kernel.collect kernel ~vid:"nope" [ Measurement.Task_list ] with
  | Error (`Unknown_vm "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_vm"

let test_kernel_histogram_detection_period () =
  let engine, server, _ = make_rig () in
  (* contention so bursts are bounded at 30ms *)
  let co =
    Hypervisor.Vm.make ~vid:"v2" ~owner:"b" ~image:Hypervisor.Image.cirros
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () -> [ Hypervisor.Program.busy_loop () ])
      ()
  in
  ignore (Result.get_ok (Hypervisor.Server.launch server ~pin:0 co) : Hypervisor.Server.instance);
  let kernel = Monitor_kernel.create server in
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  let total values =
    match values with
    | Ok [ Measurement.Measured_histogram h ] -> Array.fold_left ( + ) 0 h
    | _ -> -1
  in
  let first = total (Monitor_kernel.collect kernel ~vid:"v1" [ Measurement.Cpu_burst_histogram ]) in
  Alcotest.(check bool) "first collection sees bursts" true (first > 10);
  let second = total (Monitor_kernel.collect kernel ~vid:"v1" [ Measurement.Cpu_burst_histogram ]) in
  Alcotest.(check int) "immediately re-collected: empty detection period" 0 second;
  Sim.Engine.run_until engine (Sim.Time.sec 10);
  let third = total (Monitor_kernel.collect kernel ~vid:"v1" [ Measurement.Cpu_burst_histogram ]) in
  Alcotest.(check bool) "new period sees new bursts" true (third > 10)

let test_kernel_loads_registers () =
  let engine, server, _ = make_rig () in
  let kernel = Monitor_kernel.create server in
  Sim.Engine.run_until engine (Sim.Time.sec 3);
  ignore (Monitor_kernel.collect kernel ~vid:"v1" [ Measurement.Cpu_time (Sim.Time.sec 1) ]);
  match Hypervisor.Server.trust_backend server with
  | None -> Alcotest.fail "trust module expected"
  | Some tm ->
      (* Register 30 holds the CPU measure (paper 4.5.2). *)
      Alcotest.(check bool) "register 30 loaded" true
        ((Tpm.Backend.read_registers tm).(30) > 0)

let test_kernel_intrusion_pause () =
  let _, server, _ = make_rig () in
  let kernel = Monitor_kernel.create server in
  Alcotest.(check int) "passive monitors are free" 0
    (Monitor_kernel.intrusion_pause kernel
       [ Measurement.Cpu_burst_histogram; Measurement.Cpu_time 0; Measurement.Platform_integrity ]);
  Alcotest.(check bool) "VMI probe pauses the VM" true
    (Monitor_kernel.intrusion_pause kernel [ Measurement.Task_list ] > 0)

let () =
  Alcotest.run "monitors"
    [
      ( "measurement",
        [
          qtest requests_roundtrip;
          qtest values_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
        ] );
      ( "vmi",
        [
          Alcotest.test_case "sees hidden processes" `Quick test_vmi_sees_hidden;
          Alcotest.test_case "unknown vm" `Quick test_vmi_unknown_vm;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "window" `Quick test_profiler_window;
          Alcotest.test_case "contended" `Quick test_profiler_contended;
          Alcotest.test_case "unknown vm" `Quick test_profiler_unknown_vm;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "platform" `Quick test_integrity_platform;
          Alcotest.test_case "image" `Quick test_integrity_image;
          Alcotest.test_case "insecure server" `Quick test_integrity_insecure_server;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "collect all" `Quick test_kernel_collect_all;
          Alcotest.test_case "unknown vm" `Quick test_kernel_unknown_vm;
          Alcotest.test_case "histogram detection period" `Quick
            test_kernel_histogram_detection_period;
          Alcotest.test_case "loads registers" `Quick test_kernel_loads_registers;
          Alcotest.test_case "intrusion pause" `Quick test_kernel_intrusion_pause;
        ] );
    ]
