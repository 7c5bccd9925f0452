type bug =
  | No_bug
  | Skip_invalidate_on_migrate
  | Skip_invalidate_on_resume
  | Rebind_on_restore
  | Lazy_monitor

type outcome = {
  scenario : Op.scenario;
  observations : Oracle.op_obs list;
  violations : Oracle.violation list;
  digest : string;
  vms_launched : int;
  attests_run : int;
}

let n_images = Array.length Op.images
let n_workloads = Array.length Op.workloads
let property p = Op.properties.(p mod Array.length Op.properties)

(* Map an abstract fault to a network adversary.  [Lossy]'s coin flips are
   seeded from (scenario seed, op index) so the same scenario always builds
   the same adversary — determinism end to end. *)
let adversary ~seed ~index = function
  | Op.Drop_nth n -> Net.Fault.drop_nth (max 1 n)
  | Op.Garble_nth n -> Net.Fault.garble_nth (max 1 n)
  | Op.Lossy (drop, garble) ->
      Net.Fault.lossy
        ~garble_p:(float_of_int (max 0 garble) /. 100.)
        ~drop_p:(float_of_int (max 0 drop) /. 100.)
        ~seed:(seed lxor ((index + 1) * 7919))
        ()
  | Op.Blackout -> Net.Fault.blackout ()

(* Everything a replay carries from one op to the next. *)
type state = {
  bug : bug;
  seed : int;
  cloud : Core.Cloud.t;
  ctl : Core.Controller.t;
  net : Net.Network.t;
  drbg : Crypto.Drbg.t;
  oracle : Oracle.t;
  mutable vids : string array;
      (* slot table: every successfully launched vid, in launch order.
         Slots stay stable forever (terminated VMs keep their index), so a
         shrunk scenario references the same VMs as the original. *)
  mutable audit : (Audit.Log.t list * Audit.Auditor.t * Audit.Auditor.t) option;
      (* audit plane: two gossiping auditors polling every AS log directly
         (off-path observers the network adversary cannot touch).  One-way
         switch, matching [Cloud.enable_audit]. *)
  mutable fault_active : bool;
      (* a network adversary is installed; the protocol estimate oracle only
         trusts its envelope on adversary-free runs *)
  (* Continuous monitor: while armed ([mon_period] > 0 ms), every tracked
     VM — launched monitored, alive, not suspended — is re-attested for
     Runtime_integrity whenever its last probe is older than the period.
     Catch-up runs after every op and, crucially, inside Advance in
     period-sized chunks, so freshness survives long quiet stretches. *)
  mutable mon_period : int;
  mon_last : (string, Sim.Time.t) Hashtbl.t;
  monitored : (string, unit) Hashtbl.t;
  suspended : (string, unit) Hashtbl.t;
  dead : (string, unit) Hashtbl.t;
  mutable probes : Oracle.monitor_probe list;  (* this op's, newest first *)
  mutable attests_run : int;
  sha : Crypto.Sha256.ctx;  (* determinism digest over the sealed obs *)
  mutable observations : Oracle.op_obs list;  (* newest first *)
}

let create bug seed =
  let config =
    {
      Core.Cloud.default_config with
      seed;
      key_bits = 512;
      num_attestation_servers = 2;
      (* Heterogeneous trust plane: every scenario exercises all three
         backends (the scheduler spreads VMs across the hosts). *)
      backend_of =
        (fun i ->
          [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |].(i mod 3));
    }
  in
  let cloud = Core.Cloud.build ~config () in
  let ctl = Core.Cloud.controller cloud in
  {
    bug;
    seed;
    cloud;
    ctl;
    net = Core.Cloud.net cloud;
    drbg = Crypto.Drbg.create ~seed:("fuzz|" ^ string_of_int seed);
    oracle = Oracle.create ~controller_key:(Core.Controller.public_key ctl) ();
    vids = [||];
    audit = None;
    fault_active = false;
    mon_period = 0;
    mon_last = Hashtbl.create 16;
    monitored = Hashtbl.create 16;
    suspended = Hashtbl.create 4;
    dead = Hashtbl.create 4;
    probes = [];
    attests_run = 0;
    sha = Crypto.Sha256.init ();
    observations = [];
  }

let now st = Core.Cloud.now st.cloud
let host st vid = Core.Controller.vm_host st.ctl ~vid
let fail (o : Oracle.op_obs) = { o with lifecycle_ok = false }

let resolve st slot =
  let n = Array.length st.vids in
  if n = 0 then None else Some st.vids.(slot mod n)

(* Resolve [slot] and make its VM the op's target; before the first launch
   the op is a no-op. *)
let on_slot st (o : Oracle.op_obs) slot f =
  match resolve st slot with None -> o | Some vid -> f { o with target = Some vid } vid

let on_host st o vid f = match host st vid with None -> fail o | Some h -> f h

let attest_obs ~host (req : Core.Protocol.attest_request) result =
  {
    Oracle.a_vid = req.vid;
    a_property = req.property;
    a_nonce = req.nonce;
    a_result = result;
    a_host = host;
  }

(* One [Controller.attest]; the obs records the VM's host at request time. *)
let attest st vid property =
  let req = { Core.Protocol.vid; property; nonce = Crypto.Drbg.nonce st.drbg } in
  let host = host st vid in
  let result, ledger = Core.Controller.attest st.ctl req in
  (attest_obs ~host req result, ledger)

(* A lifecycle transition of [vid]; on success [after] updates the monitor
   bookkeeping.  [stale] plants a [Skip_invalidate_*] mutant: the VM's
   cached verdicts are put back after the transition, emulating a
   controller that forgot to invalidate on it. *)
let transition st ?(stale = false) ?(after = ignore) act (o : Oracle.op_obs) vid =
  let cache = Core.Controller.verdict_cache st.ctl in
  let snap =
    if not stale then []
    else
      List.filter_map
        (fun property -> Core.Verdict_cache.find cache ~vid ~property)
        (Array.to_list Op.properties)
  in
  let ok = Result.is_ok (act ~vid) in
  if ok then begin
    List.iter (fun r -> ignore (Core.Verdict_cache.store cache r : bool)) snap;
    after vid
  end;
  { o with lifecycle_ok = ok }

let respond st ?stale ?after action =
  transition st ?stale ?after (Core.Controller.respond st.ctl action)

let mark table vid = Hashtbl.replace table vid ()

(* Restart [vid]'s freshness clock while the monitor is armed. *)
let rebaseline st vid = if st.mon_period > 0 then Hashtbl.replace st.mon_last vid (now st)

(* Hide malware in each of [vids] running on [host]; returns those infected. *)
let infect st host vids =
  match Core.Cloud.find_server st.cloud host with
  | None -> []
  | Some srv ->
      List.filter
        (fun vid ->
          match Hypervisor.Server.find srv vid with
          | None -> false
          | Some inst ->
              ignore
                (Attacks.Malware.infect_hidden inst.Hypervisor.Server.vm ()
                  : Hypervisor.Guest_os.process);
              true)
        vids

(* Save [src]'s vTPM and restore it into [dst] ([Vtpm_cycle] passes one host
   twice).  Under [Rebind_on_restore] the management plane silently
   launders the restore into a fresh binding behind the oracle's back; the
   stale-binding oracle must flag it. *)
let move_vtpm st o ~src ~dst =
  match Core.Cloud.vtpm_save st.cloud ~server:src with
  | Error _ -> fail o (* [src] is not an e-vTPM *)
  | Ok state -> (
      match Core.Cloud.vtpm_restore st.cloud ~server:dst state with
      | Error _ -> fail o
      | Ok () ->
          if st.bug = Rebind_on_restore then
            ignore (Core.Cloud.vtpm_rebind st.cloud ~server:dst : (int, string) result);
          { o with vtpm_stale = [ dst ] })

let tracked st vid =
  Hashtbl.mem st.monitored vid
  && (not (Hashtbl.mem st.suspended vid))
  && not (Hashtbl.mem st.dead vid)

let catch_up st =
  if st.mon_period > 0 then
    Array.iter
      (fun vid ->
        let due =
          match Hashtbl.find_opt st.mon_last vid with
          | Some last -> now st - last >= Sim.Time.ms st.mon_period
          | None -> true
        in
        if tracked st vid && due then begin
          let mp_started = now st in
          Hashtbl.replace st.mon_last vid mp_started;
          let a, _ledger = attest st vid Core.Property.Runtime_integrity in
          st.probes <- { Oracle.mp_vid = vid; mp_started; mp_attest = a } :: st.probes
        end)
      st.vids

let audit_poll st =
  Option.iter
    (fun (logs, a, b) ->
      List.iter
        (fun l ->
          let v = Audit.View.of_log l in
          Audit.Auditor.observe a v;
          Audit.Auditor.observe b v)
        logs;
      Audit.Auditor.exchange a b)
    st.audit

let status_tag = function
  | Core.Report.Healthy -> "H"
  | Core.Report.Compromised _ -> "C"
  | Core.Report.Unknown _ -> "U"

(* Run a protocol phrase through the interpreter over the live slot table. *)
let run_phrase st (o : Oracle.op_obs) phrase =
  let msgs0 = Net.Network.message_count st.net in
  let drops0 = Net.Network.drop_count st.net in
  let run = Copland.Interp.run ~drbg:st.drbg st.cloud ~vids:st.vids phrase in
  let p =
    { Oracle.p_phrase = phrase; p_accepted = false; p_status = "-"; p_leaves = 0;
      p_all_ok = true; p_messages = Net.Network.message_count st.net - msgs0;
      p_drops = Net.Network.drop_count st.net - drops0; p_compute = 0; p_estimate = None;
      p_faulty = st.fault_active }
  in
  match run with
  | Error _ -> { o with protocol = Some p }
  | Ok { Copland.Interp.status; leaves; ledger; _ } ->
      let leaf (l : Copland.Interp.leaf_result) =
        attest_obs ~host:(host st l.vid)
          { Core.Protocol.vid = l.vid; property = l.property; nonce = l.nonce }
          l.report
      in
      let compute =
        Core.Ledger.total ledger
        - Core.Ledger.of_label ledger "network"
        - Core.Ledger.of_label ledger "as:network"
      in
      let env = Copland.Env.of_cloud st.cloud ~vids:st.vids in
      let all_ok =
        List.for_all (fun (l : Copland.Interp.leaf_result) -> Result.is_ok l.report) leaves
      in
      {
        o with
        attests = List.map leaf leaves;
        ledger = Core.Ledger.entries ledger;
        protocol =
          Some
            { p with p_accepted = true; p_status = status_tag status;
              p_leaves = List.length leaves; p_all_ok = all_ok; p_compute = compute;
              p_estimate = Some (Copland.Estimate.of_phrase env phrase) };
      }

(* Run one op's own effect, filling in the op-specific fields of [o]. *)
let exec st (o : Oracle.op_obs) =
  match o.op with
  | Op.Launch { image; monitored; workload } -> (
      let req =
        {
          Core.Controller.owner = "fuzz";
          image = Op.images.(image mod n_images);
          flavor = "small";
          properties = (if monitored then Core.Property.all else []);
          workload = Op.workloads.(workload mod n_workloads);
          pins = [];
        }
      in
      match Core.Controller.launch st.ctl req with
      | Error _ -> fail o
      | Ok info ->
          let vid = info.Core.Commands.vid in
          st.vids <- Array.append st.vids [| vid |];
          if monitored then begin
            mark st.monitored vid;
            rebaseline st vid
          end;
          { o with launched = Some (vid, image mod n_images, monitored) })
  | Op.Terminate s ->
      on_slot st o s (respond st ~after:(mark st.dead) Core.Controller.Terminate_vm)
  | Op.Suspend s ->
      on_slot st o s (respond st ~after:(mark st.suspended) Core.Controller.Suspend_vm)
  | Op.Resume s ->
      on_slot st o s
        (transition st ~stale:(st.bug = Skip_invalidate_on_resume)
           ~after:(fun vid ->
             Hashtbl.remove st.suspended vid;
             (* freshness restarts: the VM was unprobeable while out *)
             rebaseline st vid)
           (Core.Controller.resume st.ctl))
  | Op.Migrate s ->
      on_slot st o s
        (respond st ~stale:(st.bug = Skip_invalidate_on_migrate) Core.Controller.Migrate_vm)
  | Op.Attest (s, p) -> (
      match resolve st s with
      | None -> o
      | Some vid ->
          let a, ledger = attest st vid (property p) in
          { o with attests = [ a ]; ledger = Core.Ledger.entries ledger })
  | Op.Attest_many pairs -> (
      let request (s, p) =
        Option.map
          (fun vid ->
            { Core.Protocol.vid; property = property p; nonce = Crypto.Drbg.nonce st.drbg })
          (resolve st s)
      in
      match List.filter_map request pairs with
      | [] -> o
      | reqs ->
          let results, ledger = Core.Controller.attest_many st.ctl reqs in
          {
            o with
            attests =
              List.map
                (fun ((req : Core.Protocol.attest_request), res) ->
                  attest_obs ~host:(host st req.vid) req res)
                results;
            ledger = Core.Ledger.entries ledger;
          })
  | Op.Set_cache_ttl ms ->
      Core.Controller.set_verdict_cache_ttl st.ctl (Sim.Time.ms (max 0 ms));
      o
  | Op.Set_batching b ->
      Core.Controller.set_batching st.ctl b;
      o
  | Op.Enable_audit ->
      if Option.is_none st.audit then begin
        let logs = Core.Cloud.enable_audit st.cloud in
        let key_of id =
          List.find_opt (fun l -> Audit.Log.log_id l = id) logs |> Option.map Audit.Log.public_key
        in
        let make name = Audit.Auditor.create ~name ~key_of ~clock:(fun () -> now st) () in
        st.audit <- Some (logs, make "fuzz-auditor-a", make "fuzz-auditor-b")
      end;
      o
  | Op.Set_fault f ->
      st.fault_active <- true;
      Net.Network.set_adversary st.net (adversary ~seed:st.seed ~index:o.index f);
      o
  | Op.Clear_fault ->
      st.fault_active <- false;
      Net.Network.clear_adversary st.net;
      o
  | Op.Advance ms ->
      let total = Sim.Time.ms ms in
      (if st.mon_period > 0 && st.bug <> Lazy_monitor then begin
         (* chunk the advance at the monitor period so probes fire when
            due rather than piling up at the far end *)
         let chunk = Sim.Time.ms st.mon_period in
         let rec go remaining =
           if remaining > 0 then begin
             Core.Cloud.run_for st.cloud (min remaining chunk);
             catch_up st;
             go (remaining - chunk)
           end
         in
         go total
       end
       else Core.Cloud.run_for st.cloud total);
      o
  | Op.Infect s ->
      on_slot st o s (fun o vid ->
          on_host st o vid (fun host -> { o with lifecycle_ok = infect st host [ vid ] <> [] }))
  | Op.Corrupt_image i ->
      ignore (Core.Controller.corrupt_image st.ctl Op.images.(i mod n_images) : bool);
      o
  | Op.Vtpm_cycle s ->
      on_slot st o s (fun o vid -> on_host st o vid (fun h -> move_vtpm st o ~src:h ~dst:h))
  | Op.Vtpm_clone (src, dst) -> (
      match resolve st src with
      | None -> o
      | Some src_vid ->
          on_slot st o dst (fun o dst_vid ->
              on_host st o src_vid (fun src ->
                  on_host st o dst_vid (fun dst -> move_vtpm st o ~src ~dst))))
  | Op.Vtpm_rebind s ->
      on_slot st o s (fun o vid ->
          on_host st o vid (fun host ->
              match Core.Cloud.vtpm_rebind st.cloud ~server:host with
              | Error _ -> fail o
              | Ok _epoch -> { o with vtpm_rebound = [ host ] }))
  | Op.Protocol_term phrase when st.vids <> [||] -> run_phrase st o phrase
  | Op.Protocol_term _ ->
      (* Before the first launch there is no slot table; the phrase is a
         no-op rather than a rejection (slot 0 is not ill-typed, it just
         has nothing to name yet). *)
      o
  | Op.Monitor_enable ms ->
      if ms <= 0 then st.mon_period <- 0
      else begin
        (* arming (re)baselines every tracked VM at "now": the operator
           asks for freshness from this moment on *)
        if st.mon_period = 0 then
          Array.iter
            (fun vid -> if tracked st vid then Hashtbl.replace st.mon_last vid (now st))
            st.vids;
        st.mon_period <- ms
      end;
      o
  | Op.Monitor_period ms ->
      if st.mon_period > 0 && ms > 0 then st.mon_period <- ms;
      o
  | Op.Monitor_storm s ->
      on_slot st o s (fun o vid ->
          on_host st o vid (fun host ->
              (* correlated incident: every VM sharing vid's host is
                 compromised at once; [step] completes the monitor obs *)
              let storm = infect st host (Array.to_list st.vids) in
              {
                o with
                lifecycle_ok = storm <> [];
                monitor = Some { Oracle.m_period = 0; m_probes = []; m_storm = storm };
              }))

(* Run one op and seal its observation: feed it to the oracles and the
   digest.  Raises whatever the op raises, before anything is sealed. *)
let step st index op =
  (* Mandatory 1 ms pre-advance: anything produced by an earlier op is now
     strictly older than [started_at], which is how the oracles recognise a
     cache-served verdict (see oracle.mli). *)
  Core.Cloud.run_for st.cloud (Sim.Time.ms 1);
  st.probes <- [];
  let started_at = now st in
  let o =
    exec st
      { Oracle.index; op; started_at; finished_at = started_at; attests = []; target = None;
        lifecycle_ok = true; launched = None; ledger = []; net_messages = 0; net_bytes = 0;
        net_drops = 0; audit_evidence = 0; vtpm_stale = []; vtpm_rebound = [];
        protocol = None; monitor = None }
  in
  (* Op-boundary catch-up: whatever the op just did (launch, resume, storm,
     plain time passing), overdue probes fire before the obs is sealed, so
     the oracle sees them attributed to this op. *)
  catch_up st;
  audit_poll st;
  let monitor_op =
    match op with
    | Op.Monitor_enable _ | Op.Monitor_period _ | Op.Monitor_storm _ -> true
    | _ -> false
  in
  let obs =
    {
      o with
      finished_at = now st;
      net_messages = Net.Network.message_count st.net;
      net_bytes = Net.Network.bytes_sent st.net;
      net_drops = Net.Network.drop_count st.net;
      audit_evidence =
        (match st.audit with
        | None -> 0
        | Some (_, a, b) -> Audit.Auditor.evidence_count a + Audit.Auditor.evidence_count b);
      monitor =
        (if st.mon_period > 0 || monitor_op then
           Some
             {
               Oracle.m_period = st.mon_period;
               m_probes = List.rev st.probes;
               m_storm = (match o.monitor with Some m -> m.m_storm | None -> []);
             }
         else None);
    }
  in
  ignore (Oracle.observe st.oracle obs : Oracle.violation list);
  Crypto.Sha256.update st.sha (Oracle.digest_of_obs obs ^ "\n");
  st.attests_run <- st.attests_run + List.length obs.attests + List.length st.probes;
  st.observations <- obs :: st.observations

(* The one place a raising replay is reported: the replay stops there and
   the op's index carries an [exception] violation. *)
let run ?(bug = No_bug) (scenario : Op.scenario) =
  let st = create bug scenario.Op.seed in
  let stopped =
    List.fold_left
      (fun acc op ->
        match acc with
        | Error _ -> acc
        | Ok index -> (
            match step st index op with
            | () -> Ok (index + 1)
            | exception e ->
                let detail = Printexc.to_string e in
                Error { Oracle.oracle = "exception"; op_index = index; detail }))
      (Ok 0) scenario.Op.ops
  in
  {
    scenario;
    observations = List.rev st.observations;
    violations =
      Oracle.all st.oracle @ (match stopped with Ok _ -> [] | Error v -> [ v ]);
    digest = Crypto.Hexs.encode (Crypto.Sha256.finalize st.sha);
    vms_launched = Array.length st.vids;
    attests_run = st.attests_run;
  }
