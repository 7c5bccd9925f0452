type priority = Boost | Under | Over

let prio_rank = function Boost -> 2 | Under -> 1 | Over -> 0

type vstate = Ready | Running | Blocked | Paused | Dead

type vcpu = {
  vid : int;
  index : int;  (* index within the domain, the target space of IPIs *)
  dom : domain;
  program : Program.t;
  pcpu_id : int;
  mutable state : vstate;
  mutable priority : priority;
  mutable remaining : Sim.Time.t;  (* compute left in the current action *)
  mutable credits : int;
  mutable run_start : Sim.Time.t;  (* start of the current burst *)
  mutable last_charge : Sim.Time.t;  (* last runtime-accounting instant *)
  mutable boosted_at : Sim.Time.t;
  mutable wake_handle : Sim.Engine.handle option;
  mutable sleep_until : Sim.Time.t;
  mutable sleep_left : Sim.Time.t;  (* saved remaining sleep across pause *)
  mutable ready_since : Sim.Time.t;  (* when the vCPU last became Ready *)
  mutable queue_token : int;  (* lazy-deletion marker for runqueue entries *)
}

and domain = {
  dom_id : int;
  name : string;
  weight : int;
  mutable vcpus : vcpu list;  (* in index order *)
  mutable runtime : Sim.Time.t;
  mutable waittime : Sim.Time.t;  (* ready-but-not-running ("steal") time *)
  burst_hist : int array;
  mutable trace_on : bool;
  mutable trace : (Sim.Time.t * Sim.Time.t) list;  (* newest first *)
  mutable paused : bool;
  mutable dead : bool;
}

type pcpu = {
  id : int;
  mutable running : vcpu option;
  mutable slice_end : Sim.Time.t;
  mutable cpu_event : Sim.Engine.handle option;
  boostq : (vcpu * int) Queue.t;
  underq : (vcpu * int) Queue.t;
  overq : (vcpu * int) Queue.t;
  mutable busy : Sim.Time.t;
}

(* Xen's credit-scheduler defaults: a 30 ms timeslice, credits
   distributed every 30 ms and debited 100 per tick (the tick is the one
   parameter experiments vary), hoarding capped at 600 credits, and a burst
   histogram of 30 1 ms bins. *)
let slice = Sim.Time.ms 30
let default_tick = Sim.Time.ms 10
let accounting = Sim.Time.ms 30
let credits_per_tick = 100
let credit_cap = 600
let burst_bins = 30

type t = {
  tick : Sim.Time.t;
  engine : Sim.Engine.t;
  cpus : pcpu array;
  mutable doms : domain list;
  mutable next_dom_id : int;
  mutable next_vid : int;
  mutable next_pin : int;
}

let now t = Sim.Engine.now t.engine

let domains t = List.rev t.doms
let is_paused d = d.paused

(* --- Run queues with lazy deletion ------------------------------------ *)

let queue_for pc = function
  | Boost -> pc.boostq
  | Under -> pc.underq
  | Over -> pc.overq

let invalidate v = v.queue_token <- v.queue_token + 1

let enqueue pc v =
  invalidate v;
  Queue.push (v, v.queue_token) (queue_for pc v.priority)

let rec pop_valid q =
  match Queue.take_opt q with
  | None -> None
  | Some (v, token) ->
      if v.queue_token = token && v.state = Ready then Some v else pop_valid q

let pop_ready pc =
  match pop_valid pc.boostq with
  | Some v -> Some v
  | None -> (
      match pop_valid pc.underq with
      | Some v -> Some v
      | None -> pop_valid pc.overq)

let best_waiting_rank pc =
  (* Rank of the best valid queued vCPU, for preemption decisions. *)
  let peek q =
    let found = ref None in
    Queue.iter
      (fun (v, token) ->
        if !found = None && v.queue_token = token && v.state = Ready then found := Some v)
      q;
    !found
  in
  match peek pc.boostq with
  | Some _ -> Some 2
  | None -> (
      match peek pc.underq with
      | Some _ -> Some 1
      | None -> ( match peek pc.overq with Some _ -> Some 0 | None -> None))

(* --- Accounting helpers ------------------------------------------------ *)

let record_burst t v len =
  if len > 0 then begin
    let d = v.dom in
    let ms = Sim.Time.to_ms len in
    let bin = int_of_float (ceil ms) - 1 in
    let bin = if bin < 0 then 0 else if bin >= burst_bins then burst_bins - 1 else bin in
    d.burst_hist.(bin) <- d.burst_hist.(bin) + 1;
    if d.trace_on then d.trace <- (v.run_start, len) :: d.trace
  end

(* Close a Ready-wait interval (the vCPU wanted the CPU but didn't have
   it) and charge it to the domain's steal time. *)
let end_wait t v =
  if v.state = Ready then begin
    v.dom.waittime <- v.dom.waittime + (now t - v.ready_since);
    v.ready_since <- now t
  end

let charge t v =
  let elapsed = now t - v.last_charge in
  if elapsed > 0 then begin
    v.dom.runtime <- v.dom.runtime + elapsed;
    t.cpus.(v.pcpu_id).busy <- t.cpus.(v.pcpu_id).busy + elapsed;
    v.remaining <- max 0 (v.remaining - elapsed);
    v.last_charge <- now t
  end

let refresh_priority v =
  if v.priority <> Boost then v.priority <- (if v.credits > 0 then Under else Over)

(* --- Core scheduling ---------------------------------------------------- *)

let cancel_cpu_event t pc =
  match pc.cpu_event with
  | Some h ->
      Sim.Engine.cancel t.engine h;
      pc.cpu_event <- None
  | None -> ()

(* Deschedule the running vCPU of [pc].  The caller decides the vCPU's next
   state; this handles accounting and burst recording. *)
let stop_running t pc =
  match pc.running with
  | None -> ()
  | Some v ->
      charge t v;
      record_burst t v (now t - v.run_start);
      cancel_cpu_event t pc;
      pc.running <- None

let rec dispatch_next t pc =
  match pop_ready pc with
  | None -> ()
  | Some v -> (
      match ensure_work t v with
      | `Run -> run t pc v
      | `Parked -> dispatch_next t pc)

and run t pc v =
  end_wait t v;
  invalidate v;
  v.state <- Running;
  pc.running <- Some v;
  v.run_start <- now t;
  v.last_charge <- now t;
  pc.slice_end <- now t + slice;
  arm_cpu_event t pc v

and arm_cpu_event t pc v =
  let run_until = min pc.slice_end (now t + v.remaining) in
  let run_until = max run_until (now t) in
  pc.cpu_event <- Some (Sim.Engine.schedule t.engine ~at:run_until (fun () -> on_cpu_event t pc))

(* Pull actions from the program until the vCPU has timed work, blocks or
   halts.  Zero-time actions (IPIs) are bounded to avoid livelock. *)
and ensure_work t v =
  let rec go guard =
    if v.remaining > 0 then `Run
    else if guard > 64 then begin
      v.remaining <- Sim.Time.us 10;
      `Run
    end
    else begin
      match Program.next v.program ~now:(now t) with
      | Program.Compute d -> if d <= 0 then go (guard + 1) else begin v.remaining <- d; `Run end
      | Program.Sleep d ->
          end_wait t v;
          put_to_sleep t v (max d 1);
          `Parked
      | Program.Ipi target ->
          ipi t v.dom target;
          go (guard + 1)
      | Program.Halt ->
          end_wait t v;
          v.state <- Dead;
          invalidate v;
          `Parked
    end
  in
  go 0

and put_to_sleep t v d =
  v.state <- Blocked;
  invalidate v;
  v.sleep_until <- now t + d;
  v.wake_handle <-
    Some
      (Sim.Engine.schedule t.engine ~at:v.sleep_until (fun () ->
           v.wake_handle <- None;
           do_wake t v))

(* IPIs are delivered as zero-delay events so a wake triggered from inside
   the scheduler's own event handler cannot re-enter it. *)
and ipi t dom target =
  match List.nth_opt dom.vcpus target with
  | None -> ()
  | Some sibling ->
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:0 (fun () ->
             (match sibling.wake_handle with
             | Some h ->
                 Sim.Engine.cancel t.engine h;
                 sibling.wake_handle <- None
             | None -> ());
             do_wake t sibling)
          : Sim.Engine.handle)

and do_wake t v =
  if v.state = Blocked && not v.dom.paused && not v.dom.dead then begin
    v.state <- Ready;
    v.ready_since <- now t;
    (* The boost mechanism: a waking vCPU that still has credits gets
       top priority and may preempt the running vCPU. *)
    if v.credits > 0 then begin
      v.priority <- Boost;
      v.boosted_at <- now t
    end
    else v.priority <- Over;
    let pc = t.cpus.(v.pcpu_id) in
    enqueue pc v;
    maybe_preempt t pc
  end

and maybe_preempt t pc =
  match pc.running with
  | None -> dispatch_next t pc
  | Some cur -> (
      match best_waiting_rank pc with
      | Some rank when rank > prio_rank cur.priority ->
          stop_running t pc;
          cur.state <- Ready;
          cur.ready_since <- now t;
          (* A preempted boosted vCPU loses its boost. *)
          if cur.priority = Boost then cur.priority <- (if cur.credits > 0 then Under else Over);
          enqueue pc cur;
          dispatch_next t pc
      | Some _ | None -> ())

and on_cpu_event t pc =
  pc.cpu_event <- None;
  match pc.running with
  | None -> ()
  | Some v ->
      charge t v;
      if v.remaining = 0 then begin
        (* Action complete: ask the program for more work. *)
        match ensure_work t v with
        | `Parked ->
            (* Blocked or halted: close the burst and schedule someone else. *)
            record_burst t v (now t - v.run_start);
            pc.running <- None;
            dispatch_next t pc
        | `Run ->
            if now t >= pc.slice_end then begin
              (* Slice expired exactly at the action boundary. *)
              record_burst t v (now t - v.run_start);
              pc.running <- None;
              requeue_expired t pc v;
              dispatch_next t pc
            end
            else arm_cpu_event t pc v
      end
      else begin
        (* Slice expiry mid-compute: round-robin to the next vCPU. *)
        record_burst t v (now t - v.run_start);
        pc.running <- None;
        requeue_expired t pc v;
        dispatch_next t pc
      end

and requeue_expired t pc v =
  v.state <- Ready;
  v.ready_since <- now t;
  if v.priority = Boost then v.priority <- (if v.credits > 0 then Under else Over);
  enqueue pc v

(* --- Periodic machinery ------------------------------------------------- *)

let on_tick t =
  Array.iter
    (fun pc ->
      (match pc.running with
      | Some v when now t > v.run_start ->
          (* The historic vulnerability: only the vCPU holding the CPU at
             the tick instant is debited.  A vCPU dispatched at this exact
             instant is exempt: the tick interrupt preceded the dispatch. *)
          charge t v;
          v.credits <- max (-credit_cap) (v.credits - credits_per_tick);
          if v.priority = Boost && now t - v.boosted_at >= t.tick then
            v.priority <- (if v.credits > 0 then Under else Over)
          else refresh_priority v
      | Some _ | None -> ());
      maybe_preempt t pc)
    t.cpus

let on_accounting t =
  let live_doms =
    List.filter
      (fun d ->
        (not d.dead) && (not d.paused)
        && List.exists (fun v -> v.state <> Dead) d.vcpus)
      t.doms
  in
  let total_weight = List.fold_left (fun acc d -> acc + d.weight) 0 live_doms in
  if total_weight > 0 then begin
    let periods = accounting / t.tick in
    let pool = Array.length t.cpus * periods * credits_per_tick in
    List.iter
      (fun d ->
        let live = List.filter (fun v -> v.state <> Dead) d.vcpus in
        let n = List.length live in
        if n > 0 then begin
          let share = pool * d.weight / total_weight / n in
          List.iter
            (fun v ->
              v.credits <- min credit_cap (v.credits + share);
              if v.state = Ready && v.priority <> Boost then begin
                let fresh = if v.credits > 0 then Under else Over in
                if fresh <> v.priority then begin
                  v.priority <- fresh;
                  enqueue t.cpus.(v.pcpu_id) v
                end
              end
              else refresh_priority v)
            live
        end)
      live_doms
  end;
  Array.iter (fun pc -> maybe_preempt t pc) t.cpus

let create ?(tick = default_tick) ~engine ~pcpus () =
  if pcpus <= 0 then invalid_arg "Credit_scheduler.create: need at least one pCPU";
  let t =
    {
      tick;
      engine;
      cpus =
        Array.init pcpus (fun id ->
            {
              id;
              running = None;
              slice_end = 0;
              cpu_event = None;
              boostq = Queue.create ();
              underq = Queue.create ();
              overq = Queue.create ();
              busy = 0;
            });
      doms = [];
      next_dom_id = 0;
      next_vid = 0;
      next_pin = 0;
    }
  in
  ignore (Sim.Engine.every engine ~period:tick (fun () -> on_tick t) : Sim.Engine.handle);
  ignore
    (Sim.Engine.every engine ~period:accounting (fun () -> on_accounting t) : Sim.Engine.handle);
  t

let add_domain t ~name ~weight =
  if weight <= 0 then invalid_arg "Credit_scheduler.add_domain: weight must be positive";
  let d =
    {
      dom_id = t.next_dom_id;
      name;
      weight;
      vcpus = [];
      runtime = 0;
      waittime = 0;
      burst_hist = Array.make burst_bins 0;
      trace_on = false;
      trace = [];
      paused = false;
      dead = false;
    }
  in
  t.next_dom_id <- t.next_dom_id + 1;
  t.doms <- d :: t.doms;
  d

let add_vcpu t dom ?pin program =
  if dom.dead then invalid_arg "Credit_scheduler.add_vcpu: domain is dead";
  let pcpu_id =
    match pin with
    | Some p ->
        if p < 0 || p >= Array.length t.cpus then
          invalid_arg "Credit_scheduler.add_vcpu: bad pCPU pin";
        p
    | None ->
        let p = t.next_pin mod Array.length t.cpus in
        t.next_pin <- t.next_pin + 1;
        p
  in
  let v =
    {
      vid = t.next_vid;
      index = List.length dom.vcpus;
      dom;
      program;
      pcpu_id;
      state = Ready;
      priority = Under;
      remaining = 0;
      credits = credits_per_tick * 3;
      run_start = now t;
      last_charge = now t;
      boosted_at = now t;
      wake_handle = None;
      sleep_until = 0;
      sleep_left = 0;
      ready_since = now t;
      queue_token = 0;
    }
  in
  t.next_vid <- t.next_vid + 1;
  dom.vcpus <- dom.vcpus @ [ v ];
  if dom.paused then v.state <- Paused
  else begin
    let pc = t.cpus.(pcpu_id) in
    enqueue pc v;
    maybe_preempt t pc
  end;
  v

let pause_domain t dom =
  if not dom.paused then begin
    dom.paused <- true;
    List.iter
      (fun v ->
        match v.state with
        | Running ->
            let pc = t.cpus.(v.pcpu_id) in
            stop_running t pc;
            v.state <- Paused;
            dispatch_next t pc
        | Ready ->
            end_wait t v;
            invalidate v;
            v.state <- Paused
        | Blocked ->
            (match v.wake_handle with
            | Some h ->
                Sim.Engine.cancel t.engine h;
                v.wake_handle <- None
            | None -> ());
            v.sleep_left <- max 0 (v.sleep_until - now t);
            v.state <- Paused
        | Paused | Dead -> ())
      dom.vcpus
  end

let resume_domain t dom =
  if dom.paused && not dom.dead then begin
    dom.paused <- false;
    List.iter
      (fun v ->
        if v.state = Paused then
          if v.sleep_left > 0 then begin
            v.state <- Blocked;
            let d = v.sleep_left in
            v.sleep_left <- 0;
            put_to_sleep t v d
          end
          else begin
            v.state <- Ready;
            v.ready_since <- now t;
            refresh_priority v;
            let pc = t.cpus.(v.pcpu_id) in
            enqueue pc v;
            maybe_preempt t pc
          end)
      dom.vcpus
  end

let remove_domain t dom =
  if not dom.dead then begin
    pause_domain t dom;
    List.iter
      (fun v ->
        invalidate v;
        v.state <- Dead)
      dom.vcpus;
    dom.dead <- true;
    t.doms <- List.filter (fun d -> d.dom_id <> dom.dom_id) t.doms
  end

(* --- Measurement hooks --------------------------------------------------- *)

let domain_runtime t dom =
  let live =
    List.fold_left
      (fun acc v -> if v.state = Running then acc + (now t - v.last_charge) else acc)
      0 dom.vcpus
  in
  dom.runtime + live

let domain_waittime t dom =
  let live =
    List.fold_left
      (fun acc v -> if v.state = Ready then acc + (now t - v.ready_since) else acc)
      0 dom.vcpus
  in
  dom.waittime + live

let burst_counts dom = Array.copy dom.burst_hist
let clear_burst_counts dom = Array.fill dom.burst_hist 0 (Array.length dom.burst_hist) 0

let set_burst_trace dom on =
  dom.trace_on <- on;
  if not on then dom.trace <- []

let burst_trace dom = List.rev dom.trace

let total_runtime t =
  List.fold_left (fun acc d -> acc + domain_runtime t d) 0 (domains t)

let busy_time t =
  Array.fold_left
    (fun acc pc ->
      let live = match pc.running with Some v -> now t - v.last_charge | None -> 0 in
      acc + pc.busy + live)
    0 t.cpus
