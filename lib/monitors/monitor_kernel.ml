type t = {
  server : Hypervisor.Server.t;
  profiler : Vmm_profile.t;
  (* Burst counts at the previous histogram collection, per VM: the next
     collection reports only the new detection period. *)
  last_hist : (string, int array) Hashtbl.t;
  (* Start of the current cache-miss detection period, per VM. *)
  last_cache : (string, Sim.Time.t) Hashtbl.t;
}

type error = [ `Unknown_vm of string | `Unsupported of Measurement.request ]

let create server =
  {
    server;
    profiler = Vmm_profile.create server;
    last_hist = Hashtbl.create 8;
    last_cache = Hashtbl.create 8;
  }

let default_cpu_window = Sim.Time.sec 1

let load_registers t values =
  (* Mirror the measurements into the Trust Evidence Registers: histogram
     bins occupy registers 0..29, the CPU measure register 30. *)
  match Hypervisor.Server.trust_backend t.server with
  | None -> ()
  | Some tm ->
      List.iter
        (fun v ->
          match v with
          | Measurement.Measured_histogram bins ->
              Array.iteri
                (fun i c -> if i < Tpm.Backend.num_registers tm then Tpm.Backend.write_register tm i c)
                bins
          | Measurement.Measured_cpu { vtime; _ } ->
              if Tpm.Backend.num_registers tm > 30 then
                Tpm.Backend.write_register tm 30 vtime
          | Measurement.Measured_miss_windows w ->
              (* Summary into registers 31 (windows) and 32 (total misses). *)
              if Tpm.Backend.num_registers tm > 32 then begin
                Tpm.Backend.write_register tm 31 (Array.length w);
                Tpm.Backend.write_register tm 32 (Array.fold_left ( + ) 0 w)
              end
          | Measurement.Measured_platform _ | Measurement.Measured_image _
          | Measurement.Measured_tasks _ | Measurement.Measured_ima _ ->
              ())
        values

let collect_one t ~vid (inst : Hypervisor.Server.instance) request =
  let sched = Hypervisor.Server.scheduler t.server in
  match request with
  | Measurement.Platform_integrity -> (
      match Integrity_unit.platform_measurement t.server with
      | Some m -> Ok (Measurement.Measured_platform m)
      | None -> Error (`Unsupported request))
  | Measurement.Vm_image_integrity -> Ok (Measurement.Measured_image inst.image_hash_at_launch)
  | Measurement.Task_list ->
      let kernel = Hypervisor.Guest_os.kernel_tasks inst.vm.guest in
      let visible = Hypervisor.Guest_os.visible_tasks inst.vm.guest in
      Ok (Measurement.Measured_tasks { kernel; visible })
  | Measurement.Cpu_burst_histogram ->
      let counts = Hypervisor.Credit_scheduler.burst_counts inst.domain in
      let prev =
        match Hashtbl.find_opt t.last_hist vid with
        | Some p when Array.length p = Array.length counts -> p
        | Some _ | None -> Array.make (Array.length counts) 0
      in
      let delta = Array.mapi (fun i c -> max 0 (c - prev.(i))) counts in
      Hashtbl.replace t.last_hist vid counts;
      Ok (Measurement.Measured_histogram delta)
  | Measurement.Cpu_time window ->
      let window = if window <= 0 then default_cpu_window else window in
      Vmm_profile.sample_now t.profiler;
      (match Vmm_profile.cpu_usage t.profiler ~vid ~window with
      | Some (vtime, steal) ->
          Ok
            (Measurement.Measured_cpu
               { vtime; steal; window; vcpus = inst.vm.flavor.Hypervisor.Flavor.vcpus })
      | None -> Error (`Unknown_vm vid))
  | Measurement.Ima_log -> Ok (Measurement.Measured_ima (Hypervisor.Guest_os.ima_log inst.vm.guest))
  | Measurement.Cache_miss_pattern ->
      let cache = Hypervisor.Server.cache t.server in
      let now = Sim.Engine.now (Hypervisor.Server.engine t.server) in
      let since = Option.value ~default:0 (Hashtbl.find_opt t.last_cache vid) in
      Hashtbl.replace t.last_cache vid now;
      Ok (Measurement.Measured_miss_windows (Hypervisor.Cache.miss_windows cache ~owner:vid ~since))

let intrusion_pause _t requests =
  List.fold_left
    (fun acc r ->
      match r with
      | Measurement.Task_list | Measurement.Ima_log -> acc + Vmi_tool.probe_cost
      | Measurement.Platform_integrity | Measurement.Vm_image_integrity
      | Measurement.Cpu_burst_histogram | Measurement.Cpu_time _
      | Measurement.Cache_miss_pattern ->
          acc)
    0 requests

let collect t ~vid requests =
  match Hypervisor.Server.find t.server vid with
  | None -> Error (`Unknown_vm vid)
  | Some inst ->
      let rec go acc = function
        | [] ->
            let values = List.rev acc in
            load_registers t values;
            Ok values
        | r :: rest -> (
            match collect_one t ~vid inst r with
            | Ok v -> go (v :: acc) rest
            | Error e -> Error e)
      in
      go [] requests
