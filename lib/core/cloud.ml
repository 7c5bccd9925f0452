type config = {
  seed : int;
  num_servers : int;
  num_attestation_servers : int;
      (** AS instances; cloud servers are partitioned round-robin into
          clusters, one AS per cluster (paper 3.2.3 scalability) *)
  pcpus : int;
  mem_mb : int;
  key_bits : int;
  insecure_servers : int;
  corrupt_platforms : int list;
  refs : Interpret.refs;
  backend_of : int -> Tpm.Backend.kind;
      (** trust backend per server index; all-[Classic] stays byte-identical
          to the pre-backend cloud *)
}

let default_config =
  {
    seed = 2015;
    num_servers = 3;
    num_attestation_servers = 1;
    pcpus = 4;
    mem_mb = 32768;
    key_bits = 1024;
    insecure_servers = 0;
    corrupt_platforms = [];
    refs = Interpret.default_refs;
    backend_of = (fun _ -> Tpm.Backend.Classic);
  }

type t = {
  config : config;
  engine : Sim.Engine.t;
  net : Net.Network.t;
  ca : Net.Ca.t;
  pca : Privacy_ca.t;
  controller : Controller.t;
  attestation_servers : Attestation_server.t list;
  servers : Hypervisor.Server.t list;
  platform_root : Tpm.Platform_root.t option;
  mutable enrolled : string list;
      (* every certificate subject handed out: infrastructure and customers *)
}

let config t = t.config
let net t = t.net
let ca t = t.ca
let pca t = t.pca
let controller t = t.controller
let attestation_server t = List.hd t.attestation_servers
let attestation_servers t = t.attestation_servers
let servers t = t.servers
let platform_root t = t.platform_root

let find_server t name =
  List.find_opt (fun s -> String.equal (Hypervisor.Server.name s) name) t.servers

let run_for t d = Sim.Engine.run_until t.engine (Sim.Engine.now t.engine + d)
let now t = Sim.Engine.now t.engine

(* Switch verdict transparency on end to end: every AS gets an append-only
   log (verdicts -> inclusion receipts in replies), the controller starts
   requiring and verifying those receipts, and each log emits a periodic
   signed checkpoint that auditors and customers can gossip. *)
let enable_audit ?(checkpoint_interval = Sim.Time.sec 1) t =
  let logs = List.map Attestation_server.enable_audit t.attestation_servers in
  Controller.set_auditing t.controller true;
  if checkpoint_interval > 0 then
    ignore
      (Sim.Engine.every t.engine ~period:checkpoint_interval (fun () ->
           List.iter (fun log -> ignore (Audit.Log.checkpoint log : Audit.Sth.t)) logs)
        : Sim.Engine.handle);
  logs

let all_capabilities = List.map Property.to_string Property.all

let build ?(config = default_config) () =
  let engine = Sim.Engine.create () in
  let net = Net.Network.create ~seed:config.seed () in
  let seed = string_of_int config.seed in
  let ca = Net.Ca.create ~seed ~bits:config.key_bits ~name:"cloud-root-ca" () in
  let pca = Privacy_ca.create ~seed ~bits:config.key_bits () in
  (* Hardware vendor root, minted only when some server actually runs a CVM
     report device (an all-classic cloud draws exactly the same key streams
     as before backends existed). *)
  let platform_root =
    let rec needs i =
      i < config.num_servers
      && (config.backend_of i = Tpm.Backend.Cvm_report || needs (i + 1))
    in
    if needs 0 then Some (Tpm.Platform_root.create ~bits:config.key_bits ~seed ()) else None
  in
  (* Cloud servers. *)
  let servers =
    List.init config.num_servers (fun i ->
        let name = Printf.sprintf "server-%d" (i + 1) in
        let secure = i < config.num_servers - config.insecure_servers in
        let platform =
          if List.mem i config.corrupt_platforms then Hypervisor.Server.corrupted_platform
          else Hypervisor.Server.pristine_platform
        in
        Hypervisor.Server.create ~engine ~name ~pcpus:config.pcpus ~mem_mb:config.mem_mb
          ~platform ~secure
          ~capabilities:(if secure then all_capabilities else [])
          ~key_bits:config.key_bits ~backend:(config.backend_of i) ?platform_root ~seed ())
  in
  (* One Attestation Server per cluster of cloud servers; server [i] is in
     cluster [i mod n_as]. *)
  let n_as = max 1 config.num_attestation_servers in
  let as_name i =
    if n_as = 1 then "attestation-server" else Printf.sprintf "attestation-server-%d" (i + 1)
  in
  (* The nova database: the controller owns it, every AS reads VM images
     and server backends from it. *)
  let db = Database.create () in
  let attestation_servers =
    List.init n_as (fun i ->
        Attestation_server.create ~net ~ca ~pca ~refs:config.refs ~seed
          ~key_bits:config.key_bits ~name:(as_name i)
          ~clock:(fun () -> Sim.Engine.now engine)
          ~vm_image:(fun vid -> Option.map (fun r -> r.Database.image_name) (Database.vm db vid))
          ~backend_of:(fun sname ->
            match Database.server db sname with
            | Some r -> r.Database.backend
            | None -> Tpm.Backend.Classic)
          ?platform_root:(Option.map Tpm.Platform_root.public platform_root)
          ())
  in
  let clusters = List.mapi (fun i s -> (Hypervisor.Server.name s, i mod n_as)) servers in
  let controller =
    Controller.create ~net ~engine ~ca ~seed ~key_bits:config.key_bits ~db
      ~attestation_servers:
        (List.map
           (fun a -> (Attestation_server.name a, Attestation_server.public_key a))
           attestation_servers)
      ~cluster_of:(fun host -> Option.value ~default:0 (List.assoc_opt host clusters))
      ()
  in
  List.iter (Controller.register_hypervisor controller) servers;
  (* Enrollment for secure servers.  Classic modules enroll their identity
     key; vTPMs enroll key + binding epoch in the CA's vTPM registry; CVM
     devices enroll nowhere — their trust chain terminates at the vendor
     root, not at the operator. *)
  List.iter
    (fun server ->
      match Hypervisor.Server.trust_backend server with
      | None -> ()
      | Some b -> (
          let sname = Hypervisor.Server.name server in
          match Tpm.Backend.kind b with
          | Tpm.Backend.Classic ->
              Privacy_ca.enroll_server pca ~name:sname (Tpm.Backend.identity_public b)
          | Tpm.Backend.Evtpm ->
              Privacy_ca.enroll_evtpm pca ~name:sname (Tpm.Backend.identity_public b)
                ~epoch:(Tpm.Backend.binding_epoch b)
          | Tpm.Backend.Cvm_report -> ()))
    servers;
  (* The peer table (paper Fig. 3): every endpoint as (address, identity,
     handler, accepted peers).  Customers talk to the controller, only the
     controller tasks an AS, and only the AS of a server's cluster tasks
     that server's Attestation Client. *)
  let infrastructure =
    Controller.name controller
    :: List.map Attestation_server.name attestation_servers
    @ List.map Hypervisor.Server.name servers
  in
  let endpoints =
    ( Controller.name controller, Controller.identity controller,
      Controller.request_handler controller, fun peer -> not (List.mem peer infrastructure) )
    :: List.map
         (fun a ->
           ( Attestation_server.name a, Attestation_server.identity a,
             Attestation_server.request_handler a, String.equal (Controller.name controller) ))
         attestation_servers
    @ List.concat_map
        (fun (server, (sname, cluster)) ->
          match Attestation_client.create ~ca ~seed ~key_bits:config.key_bits server with
          | Error `Not_secure -> []
          | Ok c ->
              [ ( Attestation_client.address_of sname, Attestation_client.identity c,
                  Attestation_client.request_handler c, String.equal (as_name cluster) ) ])
        (List.combine servers clusters)
  in
  List.iter
    (fun (address, identity, on_request, accept) ->
      let channel =
        Net.Secure_channel.Server.create ~identity ~ca:(Net.Ca.public ca) ~seed ~accept
          ~on_request
      in
      Net.Network.register net address (Net.Secure_channel.Server.handle channel))
    endpoints;
  (* Image catalog and standard workloads. *)
  List.iter (Controller.add_image controller)
    [ Hypervisor.Image.cirros; Hypervisor.Image.fedora; Hypervisor.Image.ubuntu ];
  Controller.register_workload controller "idle" (fun flavor ->
      Hypervisor.Vm.idle_programs flavor);
  Controller.register_workload controller "busy" (fun flavor () ->
      List.init flavor.Hypervisor.Flavor.vcpus (fun _ -> Hypervisor.Program.busy_loop ()));
  List.iter
    (fun bench ->
      Controller.register_workload controller bench.Workloads.Cloud_bench.name (fun flavor ->
          Workloads.Cloud_bench.programs bench ~vcpus:flavor.Hypervisor.Flavor.vcpus))
    Workloads.Cloud_bench.all;
  let enrolled = infrastructure in
  { config; engine; net; ca; pca; controller; attestation_servers; servers; platform_root; enrolled }

(* --- vTPM lifecycle --------------------------------------------------------- *)

let vtpm_device t server =
  match find_server t server with
  | None -> Error ("no such server: " ^ server)
  | Some s -> (
      match Hypervisor.Server.trust_backend s with
      | Some dev when Tpm.Backend.kind dev = Tpm.Backend.Evtpm -> Ok dev
      | _ -> Error (server ^ " does not run an ephemeral vTPM backend"))

let vtpm_save t ~server = Result.bind (vtpm_device t server) Tpm.Backend.save_state

let vtpm_restore t ~server state =
  Result.bind (vtpm_device t server) (fun dev -> Tpm.Backend.restore_state dev state)

let vtpm_rebind t ~server =
  Result.map
    (fun dev ->
      let epoch = Tpm.Backend.rebind dev in
      Privacy_ca.rebind_evtpm t.pca ~name:server (Tpm.Backend.identity_public dev) ~epoch;
      epoch)
    (vtpm_device t server)

(* --- Customer --------------------------------------------------------------- *)

module Customer = struct
  type cloud = t

  type error = [ `Cloud of string | `Channel of Net.Secure_channel.error | `Forged of string ]

  let pp_error ppf = function
    | `Cloud e -> Format.fprintf ppf "cloud error: %s" e
    | `Channel e -> Format.fprintf ppf "channel error: %a" Net.Secure_channel.pp_error e
    | `Forged why -> Format.fprintf ppf "FORGED REPORT: %s" why

  type t = {
    cloud : cloud;
    drbg : Crypto.Drbg.t;
    hop : Hop.t;  (* the channel to the controller *)
    (* (vid, property) -> (subscription nonce, last accepted round, user callback) *)
    subs : (string * string, string * int ref * (Report.t -> unit)) Hashtbl.t;
    mutable periodic_reports : Report.t list; (* newest first *)
    mutable forged : int;
  }

  let controller t = Controller.name t.cloud.controller

  (* One command whose reply [expect] must recognise.  The customer keeps
     no cost ledger: each call's is dropped. *)
  let request t command expect =
    match
      Hop.call t.hop ~peer:(controller t) (Ledger.create ()) (fun () ->
          ((), Commands.encode_command command))
    with
    | Error e -> Error (`Channel (Hop.cause e))
    | Ok ((), raw) -> (
        match Commands.decode_reply raw with
        | None -> Error (`Cloud "malformed reply")
        | Some (Commands.Err why) -> Error (`Cloud why)
        | Some reply -> Option.to_result ~none:(`Cloud "unexpected reply") (expect reply))

  let ack = function Commands.Ok_ack -> Some () | _ -> None

  let verify_report t ~vid ~property ~nonce (creport : Protocol.controller_report) =
    match Hop.peer_key t.hop ~peer:(controller t) with
    | None -> Error (`Forged "no authenticated controller key")
    | Some key -> (
        match
          Protocol.verify_controller_report ~key ~expected_vid:vid ~expected_property:property
            ~expected_nonce:nonce creport
        with
        | Ok () -> Ok creport.Protocol.report
        | Error e -> Error (`Forged (Format.asprintf "%a" Protocol.pp_verify_error e)))

  let create cloud ~name =
    (* One principal per certificate subject: a customer under an
       infrastructure name would pass that principal's peer checks, and a
       second customer under a taken name would take over the first one's
       periodic reports. *)
    if List.mem name cloud.enrolled then
      invalid_arg ("Cloud.Customer.create: " ^ name ^ " is already enrolled");
    cloud.enrolled <- name :: cloud.enrolled;
    let identity =
      Net.Secure_channel.Identity.make cloud.ca
        ~seed:(name ^ "|" ^ string_of_int cloud.config.seed)
        ~bits:cloud.config.key_bits ~name ()
    in
    let t =
      {
        cloud;
        drbg = Crypto.Drbg.create ~seed:("customer|" ^ name);
        hop =
          Hop.create ~net:cloud.net ~identity ~ca:(Net.Ca.public cloud.ca)
            ~seed:(fun _ -> name ^ "|chan")
            ~address:Fun.id;
        subs = Hashtbl.create 4;
        periodic_reports = [];
        forged = 0;
      }
    in
    (* Periodic results are pushed back through the controller's delivery
       hook; each is chain-verified against the subscription nonce of its
       round.  A round the controller failed delivers nothing, so rounds may
       skip, but never repeat: a report for a round at or below the last
       accepted one is a replay. *)
    Controller.subscribe cloud.controller ~owner:name (fun ~round creport ->
        let key =
          (creport.Protocol.vid, Property.to_string creport.Protocol.property)
        in
        match Hashtbl.find_opt t.subs key with
        | None -> t.forged <- t.forged + 1
        | Some (_, last, _) when round <= !last -> t.forged <- t.forged + 1
        | Some (sub_nonce, last, callback) -> (
            let expected_nonce =
              Crypto.Sha256.digest (sub_nonce ^ "|" ^ string_of_int round)
            in
            match
              verify_report t ~vid:creport.Protocol.vid ~property:creport.Protocol.property
                ~nonce:expected_nonce creport
            with
            | Ok report ->
                last := round;
                t.periodic_reports <- report :: t.periodic_reports;
                callback report
            | Error _ -> t.forged <- t.forged + 1));
    t

  let launch t ~image ~flavor ?(properties = []) ?(workload = "idle") () =
    request t (Commands.Launch { image; flavor; properties; workload }) (function
      | Commands.Ok_launch info -> Some info
      | _ -> None)

  let attest t ~vid ~property =
    let nonce = Crypto.Drbg.nonce t.drbg in
    Result.bind
      (request t (Commands.Attest_current { Protocol.vid; property; nonce }) (function
        | Commands.Ok_report creport -> Some creport
        | _ -> None))
      (verify_report t ~vid ~property ~nonce)

  let attest_periodic_scheduled t ~vid ~property ~schedule ?(on_report = fun _ -> ()) () =
    let nonce = Crypto.Drbg.nonce t.drbg in
    let key = (vid, Property.to_string property) in
    Hashtbl.replace t.subs key (nonce, ref 0, on_report);
    let result = request t (Commands.Attest_periodic { vid; property; schedule; nonce }) ack in
    if Result.is_error result then Hashtbl.remove t.subs key;
    result

  let attest_periodic t ~vid ~property ~freq ?on_report () =
    attest_periodic_scheduled t ~vid ~property ~schedule:(Schedule.fixed freq) ?on_report ()

  let attest_periodic_random t ~vid ~property ~min ~max ?on_report () =
    attest_periodic_scheduled t ~vid ~property ~schedule:(Schedule.random ~min ~max) ?on_report ()

  let stop_periodic t ~vid ~property =
    let nonce = Crypto.Drbg.nonce t.drbg in
    Hashtbl.remove t.subs (vid, Property.to_string property);
    request t (Commands.Stop_periodic { vid; property; nonce }) ack

  let terminate t ~vid = request t (Commands.Terminate { vid }) ack

  let describe t ~vid =
    request t (Commands.Describe { vid }) (function
      | Commands.Ok_describe { state; properties } -> Some (state, properties)
      | _ -> None)

  let periodic_reports t = List.rev t.periodic_reports
  let forged_count t = t.forged
end
