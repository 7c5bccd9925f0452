type response_strategy = Terminate_vm | Suspend_vm | Migrate_vm

let strategy_label = function
  | Terminate_vm -> "termination"
  | Suspend_vm -> "suspension"
  | Migrate_vm -> "migration"

type response_record = {
  at : Sim.Time.t;
  vid : string;
  strategy : response_strategy;
  reaction : Sim.Time.t;
  detail : string;
}

type launch_error =
  [ `No_qualified_server
  | `Insufficient_memory
  | `Rejected of Report.t
  | `Attestation_failed of string ]

type launch_request = {
  owner : string;
  image : string;
  flavor : string;
  properties : Property.t list;
  workload : string;
  pins : int option list;
}

type t = {
  name : string;
  net : Net.Network.t;
  engine : Sim.Engine.t;
  identity : Net.Secure_channel.Identity.t;
  drbg : Crypto.Drbg.t;
  sched_drbg : Crypto.Drbg.t;
  db : Database.t;
  (* One or more attestation servers, each responsible for a cluster of
     cloud servers (paper 3.2.3: "There can be different Attestation
     Servers for different clusters, enabling scalability").  Hosts are
     routed to their cluster's AS. *)
  attestation_servers : (string * Crypto.Rsa.public) array;
  hop : Hop.t;  (* cached channels to the attestation servers *)
  cluster_of : string -> int;  (* host -> AS index *)
  cache : Verdict_cache.t;  (* healthy verdicts, TTL-bounded; 0 = off *)
  hypervisors : (string, Hypervisor.Server.t) Hashtbl.t;
  images : (string, Hypervisor.Image.t) Hashtbl.t;
  workloads : (string, Hypervisor.Flavor.t -> unit -> Hypervisor.Program.t list) Hashtbl.t;
  subscribers : (string, round:int -> Protocol.controller_report -> unit) Hashtbl.t;
  periodic : (string * string, bool ref) Hashtbl.t; (* (vid, property) -> stop flag *)
  mutable response_policy : Report.t -> response_strategy option;
  mutable batching : bool;  (* Merkle-batched AS rounds in [attest_many]; off by default *)
  mutable auditing : bool;  (* require + verify AS inclusion receipts; off by default *)
  mutable auto_resume : bool;  (* re-check suspended VMs and resume on healthy *)
  mutable recheck_period : Sim.Time.t;
  mutable max_rechecks : int;
  mutable responses : response_record list; (* newest first *)
  mutable events : string list; (* newest first *)
  mutable next_vm : int;
}

let default_policy (r : Report.t) =
  match r.status with
  | Report.Healthy | Report.Unknown _ -> None
  | Report.Compromised _ -> (
      match r.property with
      | Property.Startup_integrity -> Some Terminate_vm
      | Property.Runtime_integrity -> Some Terminate_vm
      | Property.Covert_channel_free -> Some Migrate_vm
      | Property.Cpu_availability -> Some Migrate_vm)

let log t fmt =
  Format.kasprintf
    (fun s ->
      t.events <- Format.asprintf "[%a] %s" Sim.Time.pp (Sim.Engine.now t.engine) s :: t.events)
    fmt

let name t = t.name
let identity t = t.identity
let public_key t = t.identity.Net.Secure_channel.Identity.keypair.public
let db t = t.db

let register_hypervisor t server =
  let sname = Hypervisor.Server.name server in
  Hashtbl.replace t.hypervisors sname server;
  Database.add_server t.db
    {
      Database.name = sname;
      secure = Hypervisor.Server.is_secure server;
      backend =
        Option.value ~default:Tpm.Backend.Classic (Hypervisor.Server.backend_kind server);
      monitoring = List.filter_map Property.of_string (Hypervisor.Server.capabilities server);
    }

let hypervisor t name = Hashtbl.find_opt t.hypervisors name

let add_image t image = Hashtbl.replace t.images (Hypervisor.Image.name image) image
let find_image t name = Hashtbl.find_opt t.images name

let corrupt_image t name =
  match find_image t name with
  | None -> false
  | Some img ->
      Hashtbl.replace t.images name (Hypervisor.Image.tamper img ~payload:"storage-corruption");
      (* Image change: verdicts for every VM built from it are stale. *)
      List.iter
        (fun (r : Database.vm_record) ->
          if String.equal r.Database.image_name name then
            ignore (Verdict_cache.invalidate_vm t.cache ~vid:r.Database.vid : int))
        (Database.vms t.db);
      true

let register_workload t name factory = Hashtbl.replace t.workloads name factory

let subscribe t ~owner deliver = Hashtbl.replace t.subscribers owner deliver

let set_response_policy t policy = t.response_policy <- policy

let responses t = List.rev t.responses

let vm_host t ~vid = Option.bind (Database.vm t.db vid) (fun r -> r.Database.host)
let vm_state t ~vid = Option.map (fun r -> r.Database.state) (Database.vm t.db vid)
let events t = List.rev t.events

(* --- Talking to the Attestation Server ---------------------------------- *)

let as_index t ~host =
  let i = t.cluster_of host in
  if i < 0 || i >= Array.length t.attestation_servers then 0 else i

let ( let* ) = Result.bind

let sign_controller_report t (req : Protocol.attest_request) ledger report =
  Ledger.add ledger "report-sign" Costs.report_sign;
  let quote = Protocol.q1 ~vid:req.vid ~property:req.property ~report ~nonce:req.nonce in
  let unsigned =
    {
      Protocol.vid = req.vid;
      property = req.property;
      report;
      nonce = req.nonce;
      quote;
      signature = "";
    }
  in
  let signature =
    Crypto.Rsa.sign t.identity.Net.Secure_channel.Identity.keypair.secret
      (Protocol.controller_report_payload unsigned)
  in
  { unsigned with Protocol.signature }

(* Verify the transparency-log inclusion receipt accompanying an AS report
   (auditing on only).  A missing or forged receipt is a HARD error — it is
   evidence of an equivocating or misconfigured AS, exactly the signal the
   audit layer exists to surface, so it must never degrade to a signed
   [Unknown] the way availability failures do. *)
let audit_check t ~idx (as_report : Protocol.as_report) receipt ledger =
  if not t.auditing then Ok ()
  else
    match receipt with
    | None -> Error "audit receipt missing from AS reply"
    | Some (r : Audit.Receipt.t) ->
        Ledger.add ledger "audit-receipt-verify"
          (Costs.audit_receipt_verify ~size:r.Audit.Receipt.sth.Audit.Sth.size);
        let key = snd t.attestation_servers.(idx) in
        if Audit.Receipt.verify ~key ~entry:(Protocol.encode_as_report as_report) r then Ok ()
        else Error "audit inclusion receipt rejected"

(* One controller -> AS exchange under a fresh N2, either shape: [encode]
   builds the request around N2 and [decode] splits the reply into its
   payload, the AS's cost ledger (charged here under "as:") and its audit
   receipts.  Channel failures keep their cause ([`Hop]), so the retry loop
   can tell availability from forgery. *)
let as_call t ~idx ~encode ~decode ledger =
  let* n2, raw =
    Result.map_error
      (fun e -> `Hop e)
      (Hop.call t.hop ~peer:(fst t.attestation_servers.(idx)) ledger (fun () ->
           let n2 = Crypto.Drbg.nonce t.drbg in
           (n2, encode n2)))
  in
  let* reply, as_costs, receipts = Result.map_error (fun e -> `Hard e) (decode raw) in
  List.iter (fun (label, cost) -> Ledger.add ledger ("as:" ^ label) cost) as_costs;
  Ok (n2, reply, receipts)

(* Accept one AS report: its signature and Q2 verify under the cluster's
   VKa against the outstanding N2, its audit receipt checks out, and the
   controller re-signs the verdict under the customer's N1. *)
let accept t ~idx ~host ~n2 ledger (req : Protocol.attest_request) as_report receipt =
  Ledger.add ledger "verify" Costs.signature_verify;
  let* () =
    Result.map_error
      (fun e -> Format.asprintf "AS report rejected: %a" Protocol.pp_verify_error e)
      (Protocol.verify_as_report
         ~key:(snd t.attestation_servers.(idx))
         ~expected_vid:req.vid ~expected_server:host ~expected_property:req.property
         ~expected_nonce:n2 as_report)
  in
  let* () = audit_check t ~idx as_report receipt ledger in
  Ok (sign_controller_report t req ledger as_report.Protocol.report)

(* Never serve a stale healthy verdict after an unhealthy or undecidable
   observation; store fresh healthy ones for the TTL window. *)
let cache_bookkeep t ~vid ~property (report : Report.t) =
  match report.Report.status with
  | Report.Healthy -> ignore (Verdict_cache.store t.cache report : bool)
  | Report.Compromised _ | Report.Unknown _ ->
      ignore (Verdict_cache.invalidate t.cache ~vid ~property : bool)

let round_error = function
  | `Hard msg -> msg
  | `Hop (`Connect e) -> Format.asprintf "AS channel: %a" Net.Secure_channel.pp_error e
  | `Hop (`Call e) -> Format.asprintf "AS call: %a" Net.Secure_channel.pp_error e

(* Bounded re-attestation, either shape: [round] answers every request (in
   order) or fails as a whole.  While the path to the AS stays unavailable
   it is retried from scratch; once every attempt is spent each request
   degrades to a signed [Unknown] verdict, so the caller always gets an
   answer within the retry budget instead of an opaque transport error.
   Hard failures answer every request with the error.  Every verdict feeds
   the cache. *)
let with_retries t ~what ledger (reqs : Protocol.attest_request list) round =
  let degrade e =
    let msg = round_error e in
    log t "%s degraded to unknown: %s" what msg;
    let reason =
      Printf.sprintf "attestation server unreachable after %d attempts: %s" Hop.attempts msg
    in
    List.map
      (fun (req : Protocol.attest_request) ->
        let status = Report.Unknown reason and produced_at = Sim.Engine.now t.engine in
        let evidence = "no attestation-server report" in
        Ok
          (sign_controller_report t req ledger
             { Report.vid = req.vid; property = req.property; status; evidence; produced_at }))
      reqs
  in
  let degradable = function `Hop e -> Hop.unavailable (Hop.cause e) | `Hard _ -> false in
  let results =
    match Hop.retry ~degradable ~degrade round with
    | Ok results -> results
    | Error e -> List.map (fun _ -> Error (round_error e)) reqs
  in
  List.map2
    (fun (req : Protocol.attest_request) result ->
      Result.map
        (fun (creport : Protocol.controller_report) ->
          cache_bookkeep t ~vid:req.vid ~property:req.property creport.Protocol.report;
          creport)
        result)
    reqs results

(* One controller -> AS -> cloud server round for a single report. *)
let attest_round t (req : Protocol.attest_request) ledger () =
  Ledger.add ledger "db-lookup" Costs.db_lookup;
  let* host =
    match Database.vm t.db req.vid with
    | None -> Error (`Hard ("unknown VM " ^ req.vid))
    | Some { Database.host = None; _ } ->
        Error (`Hard ("VM " ^ req.vid ^ " is not running on any host"))
    | Some { Database.host = Some host; _ } -> Ok host
  in
  let idx = as_index t ~host in
  let* n2, as_report, receipt =
    as_call t ~idx ledger ~decode:Attestation_server.decode_service_reply
      ~encode:(fun nonce ->
        Protocol.encode_as_request
          { Protocol.vid = req.vid; server = host; property = req.property; nonce })
  in
  Ok [ accept t ~idx ~host ~n2 ledger req as_report receipt ]

(* The attest_service path: controller -> AS -> cloud server and back. *)
let attest t (req : Protocol.attest_request) =
  let ledger = Ledger.create () in
  match Verdict_cache.find t.cache ~vid:req.vid ~property:req.property with
  | Some cached ->
      (* Verdict-cache hit: re-sign the cached report under the customer's
         fresh nonce without a measurement round.  Only the controller-local
         costs are charged, so a cached re-attestation is visibly cheaper
         than a cold one on the ledger. *)
      Ledger.add ledger "db-lookup" Costs.db_lookup;
      (Ok (sign_controller_report t req ledger cached), ledger)
  | None ->
      let results =
        with_retries t ~what:("attestation of " ^ req.vid) ledger [ req ]
          (attest_round t req ledger)
      in
      (List.hd results, ledger)

(* --- Cluster routing (protocol-term delegation) -------------------------- *)

let cluster_count t = Array.length t.attestation_servers
let cluster_of_host t ~host = as_index t ~host

(* Delegated attestation: the caller (a protocol term's [Deleg] node) claims
   the VM is appraised by AS cluster [cluster].  The claim is checked against
   the topology BEFORE any wire traffic — a misrouted delegation is a hard
   protocol error, never a degradable availability failure.  A matching
   route then takes the exact [attest] path, so delegation through the right
   cluster is byte-identical to the undelegated flow. *)
let attest_routed t ~cluster (req : Protocol.attest_request) =
  let fail msg = (Error msg, Ledger.create ()) in
  if cluster < 0 || cluster >= Array.length t.attestation_servers then
    fail (Printf.sprintf "delegation misroute: no AS cluster %d" cluster)
  else begin
    match Option.bind (Database.vm t.db req.vid) (fun r -> r.Database.host) with
    | None -> fail ("VM " ^ req.vid ^ " is not running on any host")
    | Some host ->
        let idx = as_index t ~host in
        if idx <> cluster then
          fail
            (Printf.sprintf "delegation misroute: VM %s is appraised by AS cluster %d, not %d"
               req.vid idx cluster)
        else attest t req
  end

(* --- Batched attestation (opt-in, like the verdict cache) ----------------- *)

(* One controller -> AS round covering a whole group of requests that share
   a host (and therefore an AS cluster).  The AS answers with individually
   signed reports derived from ONE Merkle-aggregated Trust-Module quote, so
   the controller's per-report acceptance is unchanged by batching.  With
   auditing on, receipts pair with the [Ok] reports in reply order. *)
let group_round t ~idx ~host (reqs : Protocol.attest_request list) ledger () =
  let items = List.map (fun (r : Protocol.attest_request) -> (r.vid, r.property)) reqs in
  let* n2, per_item, receipts =
    as_call t ~idx ledger
      ~encode:(fun n2 ->
        Protocol.encode_batch_as_request
          { Protocol.ba_server = host; ba_items = items; ba_nonce = n2 })
      ~decode:(fun raw ->
        match Attestation_server.decode_batch_service_reply raw with
        | Ok (per_item, _, _) when List.length per_item <> List.length items ->
            Error "batch AS reply does not match request"
        | reply -> reply)
  in
  let receipts = ref receipts in
  let next_receipt () =
    match !receipts with
    | r :: rest ->
        receipts := rest;
        Some r
    | [] -> None
  in
  Ok
    (List.map2
       (fun req item ->
         match item with
         | Error why -> Error ("AS rejected report: " ^ why)
         | Ok as_report -> accept t ~idx ~host ~n2 ledger req as_report (next_receipt ()))
       reqs per_item)

let attest_group t ~host reqs ledger =
  with_retries t ~what:("batched attestation on " ^ host) ledger reqs
    (group_round t ~idx:(as_index t ~host) ~host reqs ledger)

let set_batching t enabled = t.batching <- enabled
let batching t = t.batching
let set_auditing t enabled = t.auditing <- enabled
let auditing t = t.auditing

(* Attest many (vid, property) pairs in one call.  With batching enabled,
   cache misses are grouped by host and each group of two or more rides a
   single Merkle-batched AS round; cache hits, unplaced VMs and lone
   requests take the exact unbatched path.  With batching disabled this is
   just [attest] in a loop (shared ledger), so the flag only ever amortizes
   cost — it never changes who signs what. *)
let attest_many t (reqs : Protocol.attest_request list) =
  let shared = Ledger.create () in
  let out = Array.make (List.length reqs) (Error "unprocessed") in
  let by_index items = List.sort (fun (i, _) (j, _) -> compare i j) items in
  let single (i, req) =
    let result, sub = attest t req in
    Ledger.merge_into shared sub;
    out.(i) <- result
  in
  let host_of (req : Protocol.attest_request) =
    if not t.batching then None
    else if Verdict_cache.find t.cache ~vid:req.vid ~property:req.property <> None then None
    else Option.bind (Database.vm t.db req.vid) (fun r -> r.Database.host)
  in
  let groups : (string, (int * Protocol.attest_request) list) Hashtbl.t = Hashtbl.create 4 in
  (* A (vid, property) pair already claimed by a group must not be measured
     a second time in the same round: the unbatched loop would have served
     the duplicate from the verdict cache the first result just populated
     (or re-measured it afterwards with the cache off).  Duplicates are
     deferred to the unbatched path AFTER the group rounds, which restores
     exactly that ordering — batching may never change a verdict. *)
  let deferred = ref [] in
  let singles =
    List.filter
      (fun (i, req) ->
        match host_of req with
        | None -> true
        | Some host ->
            let members = Option.value ~default:[] (Hashtbl.find_opt groups host) in
            let duplicate =
              List.exists
                (fun (_, (r : Protocol.attest_request)) ->
                  String.equal r.Protocol.vid req.Protocol.vid
                  && r.Protocol.property = req.Protocol.property)
                members
            in
            if duplicate then deferred := (i, req) :: !deferred
            else Hashtbl.replace groups host ((i, req) :: members);
            false)
      (List.mapi (fun i r -> (i, r)) reqs)
  in
  (* A group of one gains nothing from a batch quote: unbatched path. *)
  let lone =
    Hashtbl.fold
      (fun host items acc -> match items with [ one ] -> (host, one) :: acc | _ -> acc)
      groups []
  in
  List.iter (fun (host, _) -> Hashtbl.remove groups host) lone;
  List.iter single (by_index (List.map snd lone @ singles));
  let grouped =
    List.sort
      (fun (h1, _) (h2, _) -> compare h1 h2)
      (Hashtbl.fold (fun host items acc -> (host, by_index items) :: acc) groups [])
  in
  List.iter
    (fun (host, items) ->
      let results = attest_group t ~host (List.map snd items) shared in
      List.iter2 (fun (i, _) r -> out.(i) <- r) items results)
    grouped;
  List.iter single (by_index !deferred);
  (List.map2 (fun req r -> (req, r)) reqs (Array.to_list out), shared)

(* --- Responses (nova response module) ------------------------------------ *)

let record_response t vid strategy reaction detail =
  t.responses <- { at = Sim.Engine.now t.engine; vid; strategy; reaction; detail } :: t.responses;
  log t "response %s on %s: %s (%a)" (strategy_label strategy) vid detail Sim.Time.pp reaction

let periodic_stop t ~vid ~property =
  let key = (vid, Property.to_string property) in
  match Hashtbl.find_opt t.periodic key with
  | Some stop ->
      stop := true;
      Hashtbl.remove t.periodic key;
      log t "periodic attestation of %s for %a stopped" vid Property.pp property;
      true
  | None -> false

let stop_all_periodic t ~vid =
  List.iter (fun p -> ignore (periodic_stop t ~vid ~property:p : bool)) Property.all

let do_terminate t ~vid =
  match Database.vm t.db vid with
  | None -> Error ("unknown VM " ^ vid)
  | Some record ->
      stop_all_periodic t ~vid;
      ignore (Verdict_cache.invalidate_vm t.cache ~vid : int);
      (match record.Database.host with
      | Some host -> (
          match hypervisor t host with
          | Some hv -> ignore (Hypervisor.Server.destroy hv vid : bool)
          | None -> ())
      | None -> ());
      Database.set_state t.db ~vid Database.Terminated;
      Database.set_host t.db ~vid None;
      Ok (Lifecycle.termination_time ())

let do_suspend t ~vid =
  match Database.vm t.db vid with
  | None -> Error ("unknown VM " ^ vid)
  | Some record -> (
      match record.Database.host with
      | None -> Error ("VM " ^ vid ^ " is not running")
      | Some host -> (
          match hypervisor t host with
          | None -> Error ("host " ^ host ^ " is gone")
          | Some hv ->
              if Hypervisor.Server.suspend hv vid then begin
                Database.set_state t.db ~vid Database.Suspended;
                ignore (Verdict_cache.invalidate_vm t.cache ~vid : int);
                Ok (Lifecycle.suspension_time record.Database.flavor)
              end
              else Error ("could not suspend " ^ vid)))

let resume t ~vid =
  match Database.vm t.db vid with
  | None -> Error ("unknown VM " ^ vid)
  | Some record -> (
      match record.Database.host with
      | None -> Error ("VM " ^ vid ^ " is not placed")
      | Some host -> (
          match hypervisor t host with
          | None -> Error ("host " ^ host ^ " is gone")
          | Some hv ->
              if Hypervisor.Server.resume hv vid then begin
                Database.set_state t.db ~vid Database.Active;
                ignore (Verdict_cache.invalidate_vm t.cache ~vid : int);
                log t "resumed %s on %s" vid host;
                Ok (Lifecycle.resume_time record.Database.flavor)
              end
              else Error ("could not resume " ^ vid)))

let free_mem t name = Option.map Hypervisor.Server.mem_free_mb (hypervisor t name)

(* Post-migration attestation (sections 5.1 and 5.3): after landing on the
   destination, re-run the startup-integrity attestation; a bad destination
   platform sends the VM to the next qualified server. *)
let post_migration_attest t ~vid =
  let nonce = Crypto.Drbg.nonce t.drbg in
  attest t { Protocol.vid; property = Property.Startup_integrity; nonce }

let do_migrate t ~vid =
  match Database.vm t.db vid with
  | None -> Error ("unknown VM " ^ vid)
  | Some record -> (
      match record.Database.host with
      | None -> Error ("VM " ^ vid ^ " is not running")
      | Some src_name ->
          let monitored = record.Database.properties <> [] in
          let hop_cost =
            Lifecycle.suspension_time record.Database.flavor
            + Lifecycle.migration_transfer_time ~net:t.net record.Database.flavor
            + Lifecycle.resume_time record.Database.flavor
          in
          let rec hop ~from_name excluded cost attempts =
            if attempts <= 0 then begin
              log t "migration of %s: destinations exhausted, terminating" vid;
              Result.map (fun c -> cost + c) (do_terminate t ~vid)
            end
            else begin
              match
                Policy.select ~db:t.db ~free_mem:(free_mem t)
                  ~properties:record.Database.properties ~flavor:record.Database.flavor
                  ~exclude:excluded ()
              with
              | Error `No_qualified_server -> (
                  (* Section 5.3: no qualified server -> shut the VM down. *)
                  log t "migration of %s: no qualified server, terminating instead" vid;
                  match do_terminate t ~vid with
                  | Ok c -> Ok (cost + c)
                  | Error e -> Error e)
              | Ok decision -> (
                  let dst_name = decision.Policy.host in
                  match (hypervisor t from_name, hypervisor t dst_name) with
                  | Some src, Some dst -> (
                      Database.set_state t.db ~vid Database.Migrating;
                      match Hypervisor.Server.detach src vid with
                      | None -> Error ("VM " ^ vid ^ " vanished from " ^ from_name)
                      | Some inst -> (
                          match Hypervisor.Server.launch dst inst.Hypervisor.Server.vm with
                          | Error `Insufficient_memory ->
                              Database.set_state t.db ~vid Database.Terminated;
                              Database.set_host t.db ~vid None;
                              ignore (Verdict_cache.invalidate_vm t.cache ~vid : int);
                              Error ("target " ^ dst_name ^ " ran out of memory mid-migration")
                          | Ok _ -> (
                              Database.set_host t.db ~vid (Some dst_name);
                              (* The placement changed: any cached verdict
                                 describes measurements of the old host. *)
                              ignore (Verdict_cache.invalidate_vm t.cache ~vid : int);
                              let cost = cost + hop_cost in
                              if not monitored then begin
                                Database.set_state t.db ~vid Database.Active;
                                log t "migrated %s: %s -> %s" vid from_name dst_name;
                                Ok cost
                              end
                              else begin
                                (* Attest the new placement before declaring
                                   the migration done. *)
                                let result, ledger = post_migration_attest t ~vid in
                                let cost = cost + Ledger.total ledger in
                                match result with
                                | Ok creport
                                  when Report.is_healthy creport.Protocol.report ->
                                    Database.set_state t.db ~vid Database.Active;
                                    log t "migrated %s: %s -> %s (attested)" vid from_name
                                      dst_name;
                                    Ok cost
                                | Ok _ | Error _ ->
                                    log t
                                      "migration of %s: destination %s failed attestation, \
                                       retrying elsewhere"
                                      vid dst_name;
                                    hop ~from_name:dst_name (dst_name :: excluded) cost
                                      (attempts - 1)
                              end)))
                  | _ -> Error "hypervisor lookup failed")
            end
          in
          hop ~from_name:src_name [ src_name ] 0 3)

let respond t strategy ~vid =
  let result =
    match strategy with
    | Terminate_vm -> do_terminate t ~vid
    | Suspend_vm -> do_suspend t ~vid
    | Migrate_vm -> do_migrate t ~vid
  in
  (match result with
  | Ok reaction -> record_response t vid strategy reaction (strategy_label strategy ^ " completed")
  | Error e -> log t "response %s on %s failed: %s" (strategy_label strategy) vid e);
  result

let terminate t ~vid =
  match do_terminate t ~vid with
  | Ok _ ->
      log t "terminated %s" vid;
      true
  | Error _ -> false

(* --- Periodic attestation -------------------------------------------------- *)

let deliver t ~owner ~round report =
  Option.iter (fun f -> f ~round report) (Hashtbl.find_opt t.subscribers owner)

(* Section 5.2 response #2: a suspended VM is re-attested periodically;
   if the health recovers it is resumed, otherwise it is eventually
   terminated. *)
let start_suspension_recheck t ~vid ~property =
  let checks = ref 0 in
  let rec recheck () =
    if Database.vm t.db vid <> None && vm_state t ~vid = Some Database.Suspended then begin
      incr checks;
      let nonce = Crypto.Drbg.nonce t.drbg in
      match fst (attest t { Protocol.vid; property; nonce }) with
      | Ok report when Report.is_healthy report.Protocol.report ->
          log t "suspended %s re-attested healthy; resuming" vid;
          ignore (resume t ~vid : (Sim.Time.t, string) result)
      | Ok _ | Error _ ->
          if !checks >= t.max_rechecks then begin
            log t "suspended %s still unhealthy after %d checks; terminating" vid !checks;
            ignore (do_terminate t ~vid : (Sim.Time.t, string) result)
          end
          else
            ignore
              (Sim.Engine.schedule_after t.engine ~delay:t.recheck_period recheck
                : Sim.Engine.handle)
    end
  in
  ignore (Sim.Engine.schedule_after t.engine ~delay:t.recheck_period recheck : Sim.Engine.handle)

(* Execute the policy-selected response to a bad periodic attestation. *)
let execute_response t strategy ~vid ~property =
  ignore (periodic_stop t ~vid ~property : bool);
  (match respond t strategy ~vid with
  | Ok _ ->
      if strategy = Suspend_vm && t.auto_resume then start_suspension_recheck t ~vid ~property
  | Error _ -> ())

let periodic_start t ~vid ~property ~schedule ~nonce =
  match Database.vm t.db vid with
  | None -> false
  | Some record ->
      let key = (vid, Property.to_string property) in
      if Hashtbl.mem t.periodic key then false
      else begin
        let stop = ref false in
        let counter = ref 0 in
        let rec arm () =
          let delay = Schedule.next_delay schedule t.sched_drbg in
          ignore
            (Sim.Engine.schedule_after t.engine ~delay (fun () -> if not !stop then tick ())
              : Sim.Engine.handle)
        and tick () =
          incr counter;
          (* Fresh per-round nonce derived from the subscription nonce, so
             the customer can recompute and check it. *)
          let round_nonce = Crypto.Sha256.digest (nonce ^ "|" ^ string_of_int !counter) in
          let result, _ledger = attest t { Protocol.vid; property; nonce = round_nonce } in
          (match result with
          | Error e -> log t "periodic attestation of %s failed: %s" vid e
          | Ok report ->
              deliver t ~owner:record.Database.owner ~round:!counter report;
              let r = report.Protocol.report in
              if not (Report.is_healthy r) then begin
                match t.response_policy r with
                | Some strategy -> execute_response t strategy ~vid ~property
                | None -> ()
              end);
          if not !stop then arm ()
        in
        Hashtbl.replace t.periodic key stop;
        arm ();
        log t "periodic attestation of %s for %a %a" vid Property.pp property Schedule.pp
          schedule;
        true
      end

(* --- Launch ------------------------------------------------------------------ *)

let fresh_vid t =
  t.next_vm <- t.next_vm + 1;
  Printf.sprintf "vm-%04d" t.next_vm

let idle_workload flavor () = Hypervisor.Vm.idle_programs flavor ()

let launch t (req : launch_request) =
  match (find_image t req.image, Hypervisor.Flavor.of_name req.flavor) with
  | None, _ -> Error (`Attestation_failed ("unknown image " ^ req.image))
  | _, None -> Error (`Attestation_failed ("unknown flavor " ^ req.flavor))
  | Some image, Some flavor ->
      let programs =
        match Hashtbl.find_opt t.workloads req.workload with
        | Some factory -> factory flavor
        | None -> idle_workload flavor
      in
      let vid = fresh_vid t in
      let record =
        {
          Database.vid;
          owner = req.owner;
          image_name = req.image;
          flavor;
          properties = req.properties;
          host = None;
          state = Database.Building;
        }
      in
      Database.add_vm t.db record;
      let stages = Ledger.create () in
      (* Retry loop: a server failing platform attestation is excluded and
         scheduling runs again (paper section 5.1). *)
      let rec try_launch excluded attempts =
        if attempts <= 0 then Error `No_qualified_server
        else begin
          match
            Policy.select ~db:t.db ~free_mem:(free_mem t) ~properties:req.properties ~flavor
              ~exclude:excluded ()
          with
          | Error `No_qualified_server -> Error `No_qualified_server
          | Ok decision -> (
              Ledger.add stages "scheduling"
                (Lifecycle.scheduling_time ~considered:decision.Policy.considered);
              let host = decision.Policy.host in
              match hypervisor t host with
              | None -> try_launch (host :: excluded) (attempts - 1)
              | Some hv -> (
                  Ledger.add stages "networking" (Lifecycle.networking_time ());
                  Ledger.add stages "mapping" (Lifecycle.mapping_time flavor);
                  let vm =
                    Hypervisor.Vm.make ~vid ~owner:req.owner ~image ~flavor
                      ~programs ()
                  in
                  match Hypervisor.Server.launch hv ~pins:req.pins vm with
                  | Error `Insufficient_memory -> try_launch (host :: excluded) (attempts - 1)
                  | Ok _instance -> (
                      Ledger.add stages "spawning" (Lifecycle.spawning_time image flavor);
                      Database.set_host t.db ~vid (Some host);
                      if req.properties = [] then begin
                        Database.set_state t.db ~vid Database.Active;
                        log t "launched %s on %s (unmonitored)" vid host;
                        Ok { Commands.vid; stages = Ledger.entries stages }
                      end
                      else begin
                        (* Fifth stage: startup attestation. *)
                        let n = Crypto.Drbg.nonce t.drbg in
                        let result, ledger =
                          attest t
                            { Protocol.vid; property = Property.Startup_integrity; nonce = n }
                        in
                        Ledger.add stages "attestation" (Ledger.total ledger);
                        match result with
                        | Error e ->
                            ignore (Hypervisor.Server.destroy hv vid : bool);
                            Database.set_host t.db ~vid None;
                            Error (`Attestation_failed e)
                        | Ok creport -> (
                            let r = creport.Protocol.report in
                            match r.Report.status with
                            | Report.Healthy ->
                                Database.set_state t.db ~vid Database.Active;
                                log t "launched %s on %s (attested)" vid host;
                                Ok { Commands.vid; stages = Ledger.entries stages }
                            | Report.Compromised why
                              when String.length why >= 8 && String.sub why 0 8 = "platform" ->
                                (* Bad platform: evict and reschedule elsewhere. *)
                                ignore (Hypervisor.Server.destroy hv vid : bool);
                                Database.set_host t.db ~vid None;
                                log t "launch of %s: platform %s failed attestation, retrying"
                                  vid host;
                                try_launch (host :: excluded) (attempts - 1)
                            | Report.Compromised _ | Report.Unknown _ ->
                                (* Bad image (or undecidable): reject the launch. *)
                                ignore (Hypervisor.Server.destroy hv vid : bool);
                                Database.set_host t.db ~vid None;
                                Database.set_state t.db ~vid Database.Terminated;
                                log t "launch of %s rejected: %a" vid Report.pp_status
                                  r.Report.status;
                                Error (`Rejected r))
                      end)))
        end
      in
      let result = try_launch [] 4 in
      (match result with
      | Error _ when Database.vm t.db vid <> None ->
          Database.set_state t.db ~vid Database.Terminated;
          ignore (Verdict_cache.invalidate_vm t.cache ~vid : int)
      | _ -> ());
      result

(* --- Customer API handler ---------------------------------------------------- *)

let owns t ~peer vid =
  match Database.vm t.db vid with
  | Some r -> String.equal r.Database.owner peer
  | None -> false

let handle_command t ~peer command =
  match command with
  | Commands.Launch { image; flavor; properties; workload } -> (
      match launch t { owner = peer; image; flavor; properties; workload; pins = [] } with
      | Ok info -> Commands.Ok_launch info
      | Error `No_qualified_server -> Commands.Err "no qualified server"
      | Error `Insufficient_memory -> Commands.Err "insufficient capacity"
      | Error (`Rejected r) ->
          Commands.Err (Format.asprintf "launch rejected: %a" Report.pp_status r.Report.status)
      | Error (`Attestation_failed e) -> Commands.Err ("attestation failed: " ^ e))
  | Commands.Attest_current req ->
      if not (owns t ~peer req.Protocol.vid) then Commands.Err "no such VM"
      else begin
        match fst (attest t req) with
        | Ok report -> Commands.Ok_report report
        | Error e -> Commands.Err e
      end
  | Commands.Attest_periodic { vid; property; schedule; nonce } ->
      if not (owns t ~peer vid) then Commands.Err "no such VM"
      else if Schedule.min_period schedule < Sim.Time.ms 100 then
        Commands.Err "frequency too high"
      else if periodic_start t ~vid ~property ~schedule ~nonce then Commands.Ok_ack
      else Commands.Err "periodic attestation already active"
  | Commands.Stop_periodic { vid; property; nonce = _ } ->
      if not (owns t ~peer vid) then Commands.Err "no such VM"
      else if periodic_stop t ~vid ~property then Commands.Ok_ack
      else Commands.Err "no periodic attestation active"
  | Commands.Terminate { vid } ->
      if not (owns t ~peer vid) then Commands.Err "no such VM"
      else if terminate t ~vid then Commands.Ok_ack
      else Commands.Err "could not terminate"
  | Commands.Describe { vid } -> (
      if not (owns t ~peer vid) then Commands.Err "no such VM"
      else begin
        match Database.vm t.db vid with
        | Some r ->
            Commands.Ok_describe
              {
                state = Database.vm_state_to_string r.Database.state;
                properties = r.Database.properties;
              }
        | None -> Commands.Err "no such VM"
      end)

let request_handler t ~peer plaintext =
  match Commands.decode_command plaintext with
  | None -> Commands.encode_reply (Commands.Err "malformed command")
  | Some command -> Commands.encode_reply (handle_command t ~peer command)

let create ~net ~engine ~ca ~seed ?(key_bits = 1024) ?(name = "cloud-controller") ~db
    ~attestation_servers ?(cluster_of = fun _ -> 0) () =
  if attestation_servers = [] then
    invalid_arg "Controller.create: need at least one attestation server";
  let identity =
    Net.Secure_channel.Identity.make ca ~seed:(seed ^ "|cc") ~bits:key_bits ~name ()
  in
  {
    name;
    net;
    engine;
    identity;
    drbg = Crypto.Drbg.create ~seed:(seed ^ "|cc-drbg");
    sched_drbg = Crypto.Drbg.create ~seed:(seed ^ "|cc-sched");
    db;
    attestation_servers = Array.of_list attestation_servers;
    hop =
      Hop.create ~net ~identity ~ca:(Net.Ca.public ca)
        ~seed:(fun peer -> name ^ "->" ^ peer)
        ~address:Fun.id;
    cluster_of;
    cache = Verdict_cache.create ~clock:(fun () -> Sim.Engine.now engine) ();
    hypervisors = Hashtbl.create 8;
    images = Hashtbl.create 8;
    workloads = Hashtbl.create 8;
    subscribers = Hashtbl.create 8;
    periodic = Hashtbl.create 8;
    response_policy = default_policy;
    batching = false;
    auditing = false;
    auto_resume = true;
    recheck_period = Sim.Time.sec 5;
    max_rechecks = 10;
    responses = [];
    events = [];
    next_vm = 0;
  }

let verdict_cache t = t.cache
let set_verdict_cache_ttl t ttl = Verdict_cache.set_ttl t.cache ttl

let set_auto_resume t ?recheck_period ?max_rechecks enabled =
  t.auto_resume <- enabled;
  (match recheck_period with Some p -> t.recheck_period <- p | None -> ());
  match max_rechecks with Some m -> t.max_rechecks <- m | None -> ()
