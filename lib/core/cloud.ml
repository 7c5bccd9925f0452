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
}

let config t = t.config
let engine t = t.engine
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
  (* Attestation clients + enrollment for secure servers.  Classic modules
     enroll their identity key; vTPMs enroll key + binding epoch in the
     CA's vTPM registry; CVM devices enroll nowhere — their trust chain
     terminates at the vendor root, not at the operator. *)
  List.iter
    (fun server ->
      match Hypervisor.Server.trust_backend server with
      | None -> ()
      | Some b ->
          let sname = Hypervisor.Server.name server in
          (match Tpm.Backend.kind b with
          | Tpm.Backend.Classic ->
              Privacy_ca.enroll_server pca ~name:sname (Tpm.Backend.identity_public b)
          | Tpm.Backend.Evtpm ->
              Privacy_ca.enroll_evtpm pca ~name:sname (Tpm.Backend.identity_public b)
                ~epoch:(Tpm.Backend.binding_epoch b)
          | Tpm.Backend.Cvm_report -> ());
          (match Attestation_client.create ~net ~ca ~seed ~key_bits:config.key_bits server with
          | Ok _client -> ()
          | Error `Not_secure -> ()))
    servers;
  (* Attestation servers: one per cluster of cloud servers. *)
  let n_as = max 1 config.num_attestation_servers in
  let attestation_servers =
    List.init n_as (fun i ->
        let name =
          if n_as = 1 then "attestation-server" else Printf.sprintf "attestation-server-%d" (i + 1)
        in
        let a =
          Attestation_server.create ~net ~ca ~pca ~refs:config.refs ~seed
            ~key_bits:config.key_bits ~name ()
        in
        Attestation_server.set_clock a (fun () -> Sim.Engine.now engine);
        let channel_server =
          Net.Secure_channel.Server.create ~identity:(Attestation_server.identity a)
            ~ca:(Net.Ca.public ca) ~seed
            ~on_request:(fun ~peer plaintext ->
              Attestation_server.request_handler a ~peer plaintext)
        in
        Net.Network.register net name (Net.Secure_channel.Server.handle channel_server);
        (* Only the controller may task the attestation server. *)
        Net.Secure_channel.Server.accept_only channel_server (String.equal "cloud-controller");
        a)
  in
  (* Cloud servers are assigned to AS clusters round-robin by index. *)
  let cluster_of host =
    match String.index_opt host '-' with
    | Some i -> (
        match int_of_string_opt (String.sub host (i + 1) (String.length host - i - 1)) with
        | Some n -> (n - 1) mod n_as
        | None -> 0)
    | None -> 0
  in
  (* Controller. *)
  let controller =
    Controller.create ~net ~engine ~ca ~seed ~key_bits:config.key_bits
      ~attestation_servers:
        (List.map
           (fun a -> (Attestation_server.name a, Attestation_server.public_key a))
           attestation_servers)
      ~cluster_of ()
  in
  List.iter (Controller.register_hypervisor controller) servers;
  List.iter
    (fun a ->
      Attestation_server.set_vm_image_lookup a (fun vid ->
          Option.map
            (fun r -> r.Database.image_name)
            (Database.vm (Controller.db controller) vid));
      Attestation_server.set_backend_lookup a (fun sname ->
          match Database.server (Controller.db controller) sname with
          | Some r -> r.Database.backend
          | None -> Tpm.Backend.Classic);
      match platform_root with
      | Some root -> Attestation_server.set_platform_root a (Tpm.Platform_root.public root)
      | None -> ())
    attestation_servers;
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
  { config; engine; net; ca; pca; controller; attestation_servers; servers; platform_root }

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
    name : string;
    cloud : cloud;
    drbg : Crypto.Drbg.t;
    mutable channel : Net.Secure_channel.Client.t option;
    (* (vid, property) -> (subscription nonce, rounds seen, user callback) *)
    subs : (string * string, string * int ref * (Report.t -> unit)) Hashtbl.t;
    mutable periodic_reports : Report.t list; (* newest first *)
    mutable forged : int;
  }

  let name t = t.name

  let transport t msg =
    let result, _elapsed =
      Net.Network.call_with_retry t.cloud.net ~src:t.name
        ~dst:(Controller.name t.cloud.controller) msg
    in
    match result with
    | Ok r -> Ok r
    | Error `Dropped -> Error "message dropped"
    | Error (`No_such_host h) -> Error ("no such host: " ^ h)

  let channel t =
    match t.channel with
    | Some ch -> Ok ch
    | None -> (
        let identity =
          Net.Secure_channel.Identity.make t.cloud.ca
            ~seed:(t.name ^ "|" ^ string_of_int t.cloud.config.seed)
            ~bits:t.cloud.config.key_bits ~name:t.name ()
        in
        match
          Net.Secure_channel.Client.connect ~identity ~ca:(Net.Ca.public t.cloud.ca)
            ~seed:(t.name ^ "|chan")
            ~peer:(Controller.name t.cloud.controller)
            ~transport:(transport t)
        with
        | Ok ch ->
            t.channel <- Some ch;
            Ok ch
        | Error e -> Error (`Channel e))

  let call t command =
    let ( let* ) = Result.bind in
    let* ch = channel t in
    match Net.Secure_channel.Client.call_robust ch (Commands.encode_command command) with
    | Error e ->
        t.channel <- None;
        Error (`Channel e)
    | Ok raw -> (
        match Commands.decode_reply raw with
        | None -> Error (`Cloud "malformed reply")
        | Some (Commands.Err why) -> Error (`Cloud why)
        | Some reply -> Ok reply)

  let controller_key t =
    match t.channel with
    | Some ch -> Some (Net.Secure_channel.Client.peer_key ch)
    | None -> None

  let verify_report t ~vid ~property ~nonce (creport : Protocol.controller_report) =
    match controller_key t with
    | None -> Error (`Forged "no authenticated controller key")
    | Some key -> (
        match
          Protocol.verify_controller_report ~key ~expected_vid:vid ~expected_property:property
            ~expected_nonce:nonce creport
        with
        | Ok () -> Ok creport.Protocol.report
        | Error e -> Error (`Forged (Format.asprintf "%a" Protocol.pp_verify_error e)))

  let create cloud ~name =
    let t =
      {
        name;
        cloud;
        drbg = Crypto.Drbg.create ~seed:("customer|" ^ name);
        channel = None;
        subs = Hashtbl.create 4;
        periodic_reports = [];
        forged = 0;
      }
    in
    (* Periodic results are pushed back through the controller's delivery
       hook; each is chain-verified against the subscription nonce. *)
    Controller.subscribe cloud.controller ~owner:name (fun creport ->
        let key =
          (creport.Protocol.vid, Property.to_string creport.Protocol.property)
        in
        match Hashtbl.find_opt t.subs key with
        | None -> t.forged <- t.forged + 1
        | Some (sub_nonce, rounds, callback) -> (
            let round = !rounds + 1 in
            let expected_nonce =
              Crypto.Sha256.digest (sub_nonce ^ "|" ^ string_of_int round)
            in
            match
              verify_report t ~vid:creport.Protocol.vid ~property:creport.Protocol.property
                ~nonce:expected_nonce creport
            with
            | Ok report ->
                rounds := round;
                t.periodic_reports <- report :: t.periodic_reports;
                callback report
            | Error _ -> t.forged <- t.forged + 1));
    t

  let launch t ~image ~flavor ?(properties = []) ?(workload = "idle") () =
    match call t (Commands.Launch { image; flavor; properties; workload }) with
    | Ok (Commands.Ok_launch info) -> Ok info
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e -> Error e

  let attest t ~vid ~property =
    let nonce = Crypto.Drbg.nonce t.drbg in
    match call t (Commands.Attest_current { Protocol.vid; property; nonce }) with
    | Ok (Commands.Ok_report creport) -> verify_report t ~vid ~property ~nonce creport
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e -> Error e

  let attest_periodic_scheduled t ~vid ~property ~schedule ?(on_report = fun _ -> ()) () =
    let nonce = Crypto.Drbg.nonce t.drbg in
    Hashtbl.replace t.subs (vid, Property.to_string property) (nonce, ref 0, on_report);
    match call t (Commands.Attest_periodic { vid; property; schedule; nonce }) with
    | Ok Commands.Ok_ack -> Ok ()
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e ->
        Hashtbl.remove t.subs (vid, Property.to_string property);
        Error e

  let attest_periodic t ~vid ~property ~freq ?on_report () =
    attest_periodic_scheduled t ~vid ~property ~schedule:(Schedule.fixed freq) ?on_report ()

  let attest_periodic_random t ~vid ~property ~min ~max ?on_report () =
    attest_periodic_scheduled t ~vid ~property ~schedule:(Schedule.random ~min ~max) ?on_report ()

  let stop_periodic t ~vid ~property =
    let nonce = Crypto.Drbg.nonce t.drbg in
    Hashtbl.remove t.subs (vid, Property.to_string property);
    match call t (Commands.Stop_periodic { vid; property; nonce }) with
    | Ok Commands.Ok_ack -> Ok ()
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e -> Error e

  let terminate t ~vid =
    match call t (Commands.Terminate { vid }) with
    | Ok Commands.Ok_ack -> Ok ()
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e -> Error e

  let describe t ~vid =
    match call t (Commands.Describe { vid }) with
    | Ok (Commands.Ok_describe { state; properties }) -> Ok (state, properties)
    | Ok _ -> Error (`Cloud "unexpected reply")
    | Error e -> Error e

  let periodic_reports t = List.rev t.periodic_reports
  let forged_count t = t.forged
end
