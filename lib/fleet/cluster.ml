type verdict = Done of Core.Report.status | Shed

type job = {
  vid : string;
  property : Core.Property.t;
  key : string * string;
  mutable waiters : (verdict -> unit) list;  (* newest first *)
}

type t = {
  engine : Sim.Engine.t;
  name : string;
  capacity : int;
  queue : job Pqueue.t;
  inflight : (string * string, job) Hashtbl.t;  (* queued or in service *)
  service_time : int -> Sim.Time.t;  (* one round serving n jobs *)
  measure : vid:string -> property:Core.Property.t -> Core.Report.status;
  metrics : Metrics.t;
  gauge : Sim.Stats.Gauge.t;
  mutable busy : int;
  (* Batch window (tentpole): with [batch_max > 1] a free slot serves up to
     [batch_max] queued jobs as ONE Merkle-batched measurement round.  When
     the queue is shorter than a full batch the slot waits up to
     [batch_window] for more arrivals — unless a Customer-priority request
     is waiting, which flushes immediately (interactive requests never
     trade latency for amortization). *)
  batch_max : int;
  batch_window : Sim.Time.t;
  mutable gate : Sim.Engine.handle option;  (* armed window timer *)
  mutable ripe : bool;  (* window expired with jobs still queued *)
  (* Verdict transparency log (audit subsystem): every completed
     measurement is appended before its verdict is delivered.  [None]
     (the default) runs the pre-audit scheduler unchanged — no extra
     state, events or PRNG draws. *)
  mutable audit : Audit.Log.t option;
}

let create ~engine ~name ?(capacity = 1) ~queue_depth ~service_time ~measure ~metrics
    ?(batch_max = 1) ?(batch_window = 0) () =
  if capacity <= 0 then invalid_arg "Cluster.create: capacity must be positive";
  if batch_max <= 0 then invalid_arg "Cluster.create: batch_max must be positive";
  {
    engine;
    name;
    capacity;
    queue = Pqueue.create ~depth:queue_depth;
    inflight = Hashtbl.create 64;
    service_time;
    measure;
    metrics;
    gauge = Sim.Stats.Gauge.create ();
    busy = 0;
    batch_max;
    batch_window;
    gate = None;
    ripe = false;
    audit = None;
  }

let set_audit t log = t.audit <- log
let audit t = t.audit

(* Canonical log-entry encoding for a completed measurement; what the
   auditors replay and what inclusion proofs commit to. *)
let audit_entry ~vid ~property status =
  let tag =
    match status with
    | Core.Report.Healthy -> "healthy"
    | Core.Report.Compromised r -> "compromised:" ^ r
    | Core.Report.Unknown r -> "unknown:" ^ r
  in
  vid ^ "|" ^ Core.Property.to_string property ^ "|" ^ tag

let record_verdict t job status =
  match t.audit with
  | None -> ()
  | Some log ->
      ignore
        (Audit.Log.append log (audit_entry ~vid:job.vid ~property:job.property status)
          : int);
      Metrics.record_audit_append t.metrics

let name t = t.name
let queue_gauge t = t.gauge
let batches t = Metrics.batches t.metrics

let track_depth t =
  Sim.Stats.Gauge.set t.gauge
    ~now:(Sim.Time.to_sec (Sim.Engine.now t.engine))
    (Pqueue.length t.queue)

let finish job verdict = List.iter (fun w -> w verdict) (List.rev job.waiters)

let disarm t =
  match t.gate with
  | Some h ->
      Sim.Engine.cancel t.engine h;
      t.gate <- None
  | None -> ()

(* Pop up to [batch_max] jobs and serve them as one round.  With
   [batch_max = 1] this is the unbatched scheduler: one pop, one depth
   sample and one [service_time] draw per job, and no batch recorded. *)
let rec flush t =
  disarm t;
  t.ripe <- false;
  let rec take acc n =
    if n = 0 then List.rev acc
    else
      match Pqueue.pop t.queue with
      | None -> List.rev acc
      | Some (_, job) -> take (job :: acc) (n - 1)
  in
  match take [] t.batch_max with
  | [] -> ()
  | jobs ->
      let n = List.length jobs in
      track_depth t;
      t.busy <- t.busy + 1;
      if t.batch_max > 1 then Metrics.record_batch t.metrics ~size:n;
      List.iter (fun _ -> Metrics.record_measurement t.metrics) jobs;
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:(t.service_time n) (fun () ->
             t.busy <- t.busy - 1;
             List.iter
               (fun job ->
                 (* Remove before delivering: a requester reacting to the
                    verdict (e.g. an immediate re-check) starts a fresh
                    measurement rather than joining this finished one. *)
                 Hashtbl.remove t.inflight job.key;
                 let status = t.measure ~vid:job.vid ~property:job.property in
                 record_verdict t job status;
                 finish job (Done status))
               jobs;
             maybe_start t)
          : Sim.Engine.handle)

and maybe_start t =
  if t.busy < t.capacity && not (Pqueue.is_empty t.queue) then begin
    let should_flush =
      t.ripe
      || Pqueue.length t.queue >= t.batch_max
      || Pqueue.length_of t.queue Pqueue.Customer > 0
      || t.batch_window = 0
    in
    if should_flush then begin
      flush t;
      maybe_start t
    end
    else if t.gate = None then
      t.gate <-
        Some
          (Sim.Engine.schedule_after t.engine ~delay:t.batch_window (fun () ->
               t.gate <- None;
               t.ripe <- true;
               maybe_start t))
  end

let submit t ~vid ~property ~priority ~on_done =
  let key = (vid, Core.Property.to_string property) in
  match Hashtbl.find_opt t.inflight key with
  | Some job ->
      (* Coalesce: share the pending measurement's verdict. *)
      job.waiters <- on_done :: job.waiters;
      Metrics.record_coalesced t.metrics
  | None -> (
      let job = { vid; property; key; waiters = [ on_done ] } in
      match Pqueue.push t.queue priority job with
      | Pqueue.Rejected ->
          Metrics.record_shed t.metrics priority;
          on_done Shed
      | Pqueue.Enqueued ->
          Hashtbl.replace t.inflight key job;
          track_depth t;
          maybe_start t
      | Pqueue.Evicted (victim_priority, victim) ->
          Hashtbl.remove t.inflight victim.key;
          List.iter
            (fun w ->
              Metrics.record_shed t.metrics victim_priority;
              w Shed)
            (List.rev victim.waiters);
          Hashtbl.replace t.inflight key job;
          track_depth t;
          maybe_start t)
