type t = {
  mutable offered : int;
  mutable served : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable measurements : int;
  mutable unhealthy : int;
  sheds : int array;  (* by Pqueue.rank *)
  latency : Sim.Stats.Reservoir.t;
  mutable batches : int;
  batch_sizes : Sim.Stats.Reservoir.t;
  (* Transparency-log activity (audit-enabled runs only; all zero when the
     audit layer is off). *)
  mutable audit_appends : int;
  mutable audit_checkpoints : int;
  mutable audit_proofs : int;
  mutable audit_equivocations : int;
  (* Continuous-monitoring scheduler activity (monitor-enabled runs only;
     all zero when the monitor is off). *)
  mon_scheduled : int array;  (* probes submitted, by Pqueue.rank *)
  mon_served : int array;  (* probes completed by their deadline *)
  mon_missed : int array;  (* probes completed after their deadline *)
  mon_shed : int array;  (* probes shed by cluster admission *)
  mutable mon_dedups : int;
  mutable mon_ticks : int;
  mon_fresh : Sim.Stats.Fraction_series.t;
}

let create ?cap ?(seed = 0) () =
  {
    offered = 0;
    served = 0;
    cache_hits = 0;
    coalesced = 0;
    measurements = 0;
    unhealthy = 0;
    sheds = Array.make 3 0;
    latency = Sim.Stats.Reservoir.create ?cap ~seed:(seed lxor 0x6c617465) ();
    batches = 0;
    batch_sizes = Sim.Stats.Reservoir.create ?cap ~seed:(seed lxor 0x62617463) ();
    audit_appends = 0;
    audit_checkpoints = 0;
    audit_proofs = 0;
    audit_equivocations = 0;
    mon_scheduled = Array.make 3 0;
    mon_served = Array.make 3 0;
    mon_missed = Array.make 3 0;
    mon_shed = Array.make 3 0;
    mon_dedups = 0;
    mon_ticks = 0;
    mon_fresh = Sim.Stats.Fraction_series.create ();
  }

let record_offered t = t.offered <- t.offered + 1

let record_served t ~latency_ms =
  t.served <- t.served + 1;
  Sim.Stats.Reservoir.add t.latency latency_ms

let record_cache_hit t = t.cache_hits <- t.cache_hits + 1
let record_coalesced t = t.coalesced <- t.coalesced + 1
let record_measurement t = t.measurements <- t.measurements + 1
let record_shed t p = t.sheds.(Pqueue.rank p) <- t.sheds.(Pqueue.rank p) + 1
let record_unhealthy t = t.unhealthy <- t.unhealthy + 1

let record_batch t ~size =
  t.batches <- t.batches + 1;
  Sim.Stats.Reservoir.add t.batch_sizes (float_of_int size)

let record_audit_append t = t.audit_appends <- t.audit_appends + 1
let record_audit_checkpoint t = t.audit_checkpoints <- t.audit_checkpoints + 1
let record_audit_proof t = t.audit_proofs <- t.audit_proofs + 1

let record_audit_equivocations t n =
  t.audit_equivocations <- t.audit_equivocations + max 0 n

let record_mon_scheduled t p = t.mon_scheduled.(Pqueue.rank p) <- t.mon_scheduled.(Pqueue.rank p) + 1
let record_mon_served t p = t.mon_served.(Pqueue.rank p) <- t.mon_served.(Pqueue.rank p) + 1
let record_mon_missed t p = t.mon_missed.(Pqueue.rank p) <- t.mon_missed.(Pqueue.rank p) + 1
let record_mon_shed t p = t.mon_shed.(Pqueue.rank p) <- t.mon_shed.(Pqueue.rank p) + 1
let record_mon_dedup t = t.mon_dedups <- t.mon_dedups + 1

let record_mon_tick t ~fresh ~total =
  t.mon_ticks <- t.mon_ticks + 1;
  Sim.Stats.Fraction_series.record t.mon_fresh ~num:fresh ~den:total

let merge_into acc t =
  acc.offered <- acc.offered + t.offered;
  acc.served <- acc.served + t.served;
  acc.cache_hits <- acc.cache_hits + t.cache_hits;
  acc.coalesced <- acc.coalesced + t.coalesced;
  acc.measurements <- acc.measurements + t.measurements;
  acc.unhealthy <- acc.unhealthy + t.unhealthy;
  Array.iteri (fun i n -> acc.sheds.(i) <- acc.sheds.(i) + n) t.sheds;
  Sim.Stats.Reservoir.merge_into acc.latency t.latency;
  acc.batches <- acc.batches + t.batches;
  Sim.Stats.Reservoir.merge_into acc.batch_sizes t.batch_sizes;
  acc.audit_appends <- acc.audit_appends + t.audit_appends;
  acc.audit_checkpoints <- acc.audit_checkpoints + t.audit_checkpoints;
  acc.audit_proofs <- acc.audit_proofs + t.audit_proofs;
  acc.audit_equivocations <- acc.audit_equivocations + t.audit_equivocations;
  Array.iteri (fun i n -> acc.mon_scheduled.(i) <- acc.mon_scheduled.(i) + n) t.mon_scheduled;
  Array.iteri (fun i n -> acc.mon_served.(i) <- acc.mon_served.(i) + n) t.mon_served;
  Array.iteri (fun i n -> acc.mon_missed.(i) <- acc.mon_missed.(i) + n) t.mon_missed;
  Array.iteri (fun i n -> acc.mon_shed.(i) <- acc.mon_shed.(i) + n) t.mon_shed;
  acc.mon_dedups <- acc.mon_dedups + t.mon_dedups;
  (* Monitor ticks fire at the same absolute times on every shard, so the
     per-shard fresh series are index-aligned and max-length merges keep
     the tick count (not the sum). *)
  acc.mon_ticks <- max acc.mon_ticks t.mon_ticks;
  Sim.Stats.Fraction_series.merge_into acc.mon_fresh t.mon_fresh

let offered t = t.offered
let served t = t.served
let cache_hits t = t.cache_hits
let coalesced t = t.coalesced
let measurements t = t.measurements
let unhealthy t = t.unhealthy
let shed t p = t.sheds.(Pqueue.rank p)

let cache_hit_rate t =
  if t.served = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int t.served

let latency t = t.latency
let batches t = t.batches

let mean_batch_size t =
  if t.batches = 0 then 0.0 else Sim.Stats.Reservoir.mean t.batch_sizes

let audit_appends t = t.audit_appends
let audit_checkpoints t = t.audit_checkpoints
let audit_proofs t = t.audit_proofs
let audit_equivocations t = t.audit_equivocations
let mon_missed t p = t.mon_missed.(Pqueue.rank p)
let mon_scheduled_total t = Array.fold_left ( + ) 0 t.mon_scheduled
let mon_served_total t = Array.fold_left ( + ) 0 t.mon_served
let mon_shed_total t = Array.fold_left ( + ) 0 t.mon_shed
let mon_dedups t = t.mon_dedups
let mon_ticks t = t.mon_ticks
let mon_fresh t = t.mon_fresh
