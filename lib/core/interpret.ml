type covert_source = Cpu_bursts | Cache_misses

type integrity_source = Task_diff | Ima_whitelist

type refs = { covert_sources : covert_source list; integrity_sources : integrity_source list }

let default_refs = { covert_sources = [ Cpu_bursts ]; integrity_sources = [ Task_diff ] }

(* Golden values from the pristine platform and image definitions; the
   IMA whitelist accepts exactly the pristine binary for each name. *)
let golden_platform = Hypervisor.Server.golden_platform_measurement
let golden_image name = Hypervisor.Image.golden_hash ~name
let known_binary name hash = String.equal hash (Hypervisor.Guest_os.pristine_hash name)

(* A VM is availability-compromised only if its relative CPU usage
   (vtime/window) is below 25 % {e and} more than 70 % of the CPU time it
   wanted (run + steal) was stolen: low usage alone is just an idle VM. *)
let availability_min_pct = 25.0
let steal_min_fraction = 0.70

(* Bursts, and cache windows, needed before a covert-channel verdict is
   meaningful. *)
let min_histogram_samples = 20
let min_cache_windows = 20

let requests_for refs = function
  | Property.Startup_integrity ->
      [ Monitors.Measurement.Platform_integrity; Monitors.Measurement.Vm_image_integrity ]
  | Property.Runtime_integrity ->
      List.map
        (function
          | Task_diff -> Monitors.Measurement.Task_list
          | Ima_whitelist -> Monitors.Measurement.Ima_log)
        refs.integrity_sources
  | Property.Covert_channel_free ->
      List.map
        (function
          | Cpu_bursts -> Monitors.Measurement.Cpu_burst_histogram
          | Cache_misses -> Monitors.Measurement.Cache_miss_pattern)
        refs.covert_sources
  | Property.Cpu_availability -> [ Monitors.Measurement.Cpu_time (Sim.Time.sec 1) ]

let histogram_verdict counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total < min_histogram_samples then
    ( Report.Unknown (Printf.sprintf "only %d bursts in detection period" total),
      Printf.sprintf "bursts=%d" total )
  else begin
    let hist = Sim.Stats.Histogram.of_counts ~width:1.0 counts in
    let dist = Sim.Stats.Histogram.distribution hist in
    let values = Array.init (Array.length counts) (fun i -> float_of_int i +. 0.5) in
    match Sim.Stats.Two_means.cluster ~values ~mass:dist with
    | None -> (Report.Unknown "empty distribution", "no mass")
    | Some r ->
        let c1, c2 = r.centers in
        let w1, w2 = r.weights in
        let evidence =
          Printf.sprintf "peaks at %.1fms (%.0f%%) and %.1fms (%.0f%%), separation %.2f" c1
            (100. *. w1) c2 (100. *. w2) r.separation
        in
        if Sim.Stats.Two_means.bimodal r then
          ( Report.Compromised
              "bimodal CPU-usage interval distribution: covert-channel signalling pattern",
            evidence )
        else (Report.Healthy, evidence)
  end

(* Prime-probe signalling shows up as windows that are either quiet or
   loud, with little in between: cluster the per-window miss counts. *)
let cache_verdict windows =
  let n = Array.length windows in
  if n < min_cache_windows then
    ( Report.Unknown (Printf.sprintf "only %d cache windows in detection period" n),
      Printf.sprintf "windows=%d" n )
  else begin
    let maxc = Array.fold_left max 0 windows in
    if maxc = 0 then (Report.Healthy, "no cache contention")
    else begin
      (* Histogram of window miss counts over ~16 value bins. *)
      let bins = 16 in
      let width = float_of_int maxc /. float_of_int bins in
      let width = if width <= 0.0 then 1.0 else width in
      let mass = Array.make (bins + 1) 0.0 in
      Array.iter
        (fun c ->
          let i = int_of_float (float_of_int c /. width) in
          let i = if i > bins then bins else i in
          mass.(i) <- mass.(i) +. 1.0)
        windows;
      let values = Array.init (bins + 1) (fun i -> (float_of_int i +. 0.5) *. width) in
      match Sim.Stats.Two_means.cluster ~values ~mass with
      | None -> (Report.Unknown "empty distribution", "no mass")
      | Some r ->
          let c1, c2 = r.centers in
          let w1, w2 = r.weights in
          let evidence =
            Printf.sprintf
              "window miss counts cluster at %.0f (%.0f%%) and %.0f (%.0f%%), separation %.2f"
              c1 (100. *. w1) c2 (100. *. w2) r.separation
          in
          if Sim.Stats.Two_means.bimodal r && c2 > 4.0 *. Float.max c1 1.0 then
            ( Report.Compromised
                "quiet/loud cache-miss window pattern: prime-probe covert-channel signalling",
              evidence )
          else (Report.Healthy, evidence)
    end
  end

let ima_verdict entries =
  let bad =
    List.filter_map
      (fun (name, hash) -> if known_binary name hash then None else Some name)
      entries
  in
  let evidence = Printf.sprintf "%d measured binaries" (List.length entries) in
  match bad with
  | [] -> (Report.Healthy, evidence)
  | _ ->
      ( Report.Compromised
          (Printf.sprintf "unknown or modified binaries in IMA log: %s"
             (String.concat ", " (List.sort_uniq compare bad))),
        evidence )

let task_diff_verdict kernel visible =
  let hidden = List.filter (fun p -> not (List.mem p visible)) kernel in
  let evidence =
    Printf.sprintf "kernel tasks=%d, guest-visible=%d" (List.length kernel)
      (List.length visible)
  in
  if hidden = [] then (Report.Healthy, evidence)
  else
    ( Report.Compromised
        (Printf.sprintf "hidden processes detected by introspection: %s"
           (String.concat ", " hidden)),
      evidence )

(* Combine per-source verdicts: any compromised source condemns; all
   Unknown stays Unknown; otherwise healthy. *)
let combine verdicts =
  let compromised =
    List.find_opt (fun (s, _) -> match s with Report.Compromised _ -> true | _ -> false) verdicts
  in
  let evidence = String.concat "; " (List.map snd verdicts) in
  match compromised with
  | Some (s, _) -> (s, evidence)
  | None ->
      if List.for_all (fun (s, _) -> match s with Report.Unknown _ -> true | _ -> false) verdicts
      then
        ((match verdicts with (s, _) :: _ -> s | [] -> Report.Unknown "no measurements"), evidence)
      else (Report.Healthy, evidence)

let interpret ~image_name property values =
  match (property, values) with
  | ( Property.Startup_integrity,
      [ Monitors.Measurement.Measured_platform platform; Monitors.Measurement.Measured_image image ] ) ->
      let platform_ok = String.equal platform golden_platform in
      let image_ok =
        match image_name with
        | Some name -> String.equal image (golden_image name)
        | None -> false
      in
      let evidence =
        Printf.sprintf "platform=%s image=%s" (Crypto.Hexs.short platform)
          (Crypto.Hexs.short image)
      in
      if not platform_ok then
        (Report.Compromised "platform measurement differs from golden boot chain", evidence)
      else if not image_ok then
        (Report.Compromised "VM image hash differs from pristine image", evidence)
      else (Report.Healthy, evidence)
  | Property.Runtime_integrity, values
    when values <> []
         && List.for_all
              (function
                | Monitors.Measurement.Measured_tasks _ | Monitors.Measurement.Measured_ima _ ->
                    true
                | _ -> false)
              values ->
      combine
        (List.map
           (function
             | Monitors.Measurement.Measured_tasks { kernel; visible } ->
                 task_diff_verdict kernel visible
             | Monitors.Measurement.Measured_ima entries -> ima_verdict entries
             | _ -> (Report.Unknown "unexpected measurement", "shape"))
           values)
  | Property.Covert_channel_free, values
    when values <> []
         && List.for_all
              (function
                | Monitors.Measurement.Measured_histogram _
                | Monitors.Measurement.Measured_miss_windows _ ->
                    true
                | _ -> false)
              values ->
      combine
        (List.map
           (function
             | Monitors.Measurement.Measured_histogram counts -> histogram_verdict counts
             | Monitors.Measurement.Measured_miss_windows w -> cache_verdict w
             | _ -> (Report.Unknown "unexpected measurement", "shape"))
           values)
  | ( Property.Cpu_availability,
      [ Monitors.Measurement.Measured_cpu { vtime; steal; window; vcpus } ] ) ->
      if window <= 0 then (Report.Unknown "empty measurement window", "window=0")
      else begin
        let pct = 100.0 *. float_of_int vtime /. float_of_int window in
        let wanted = vtime + steal in
        let steal_frac =
          if wanted = 0 then 0.0 else float_of_int steal /. float_of_int wanted
        in
        let evidence =
          Printf.sprintf "relative CPU usage %.1f%%, steal %.0f%% of demand (%d vcpus)" pct
            (100.0 *. steal_frac) vcpus
        in
        if pct < availability_min_pct && steal_frac > steal_min_fraction then
          ( Report.Compromised
              (Printf.sprintf
                 "CPU availability %.1f%% below the %.0f%% SLA floor while %.0f%% of demand is stolen"
                 pct availability_min_pct (100.0 *. steal_frac)),
            evidence )
        else (Report.Healthy, evidence)
      end
  | _, vs ->
      ( Report.Unknown
          (Printf.sprintf "measurements do not match property (%d values)" (List.length vs)),
        "shape mismatch" )
