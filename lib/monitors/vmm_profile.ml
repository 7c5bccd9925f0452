type sample = { at : Sim.Time.t; runtime : Sim.Time.t; wait : Sim.Time.t }

(* One sample every 100 ms, 1200 kept: two minutes of history. *)
let sample_period = Sim.Time.ms 100
let history = 1200

type t = {
  server : Hypervisor.Server.t;
  table : (string, sample list ref) Hashtbl.t; (* vid -> samples, newest first *)
}

let record t () =
  let sched = Hypervisor.Server.scheduler t.server in
  let now = Sim.Engine.now (Hypervisor.Server.engine t.server) in
  List.iter
    (fun (inst : Hypervisor.Server.instance) ->
      let vid = inst.vm.vid in
      let runtime = Hypervisor.Credit_scheduler.domain_runtime sched inst.domain in
      let wait = Hypervisor.Credit_scheduler.domain_waittime sched inst.domain in
      let samples =
        match Hashtbl.find_opt t.table vid with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace t.table vid r;
            r
      in
      samples := { at = now; runtime; wait } :: !samples;
      if List.length !samples > history then
        samples := List.filteri (fun i _ -> i < history) !samples)
    (Hypervisor.Server.instances t.server)

let create server =
  let t = { server; table = Hashtbl.create 8 } in
  ignore
    (Sim.Engine.every (Hypervisor.Server.engine server) ~period:sample_period (record t)
      : Sim.Engine.handle);
  t

let sample_now t = record t ()

let cpu_usage t ~vid ~window =
  match Hypervisor.Server.find t.server vid with
  | None -> None
  | Some inst ->
      let sched = Hypervisor.Server.scheduler t.server in
      let now = Sim.Engine.now (Hypervisor.Server.engine t.server) in
      let run_now = Hypervisor.Credit_scheduler.domain_runtime sched inst.domain in
      let wait_now = Hypervisor.Credit_scheduler.domain_waittime sched inst.domain in
      let target = now - window in
      let run_base, wait_base =
        match Hashtbl.find_opt t.table vid with
        | None -> (0, 0)
        | Some samples ->
            (* Newest first: the first sample at or before the window start
               is the baseline; if history is too short, use the oldest. *)
            let rec find best = function
              | [] -> best
              | s :: rest -> if s.at <= target then (s.runtime, s.wait) else find (s.runtime, s.wait) rest
            in
            find (0, 0) !samples
      in
      Some (max 0 (run_now - run_base), max 0 (wait_now - wait_base))

let cpu_time t ~vid ~window = Option.map fst (cpu_usage t ~vid ~window)
