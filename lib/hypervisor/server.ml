type platform = { hypervisor_build : string; host_os_build : string }

let pristine_platform =
  { hypervisor_build = "xen-4.4.1|sha-ok"; host_os_build = "host-linux-3.13|sha-ok" }

let corrupted_platform =
  { hypervisor_build = "xen-4.4.1|sha-ok|trojan-payload"; host_os_build = "host-linux-3.13|sha-ok" }

(* Replays the measured-boot hash chain for a pristine platform. *)
let platform_composite p =
  let pcrs = Tpm.Pcr.create ~count:2 in
  ignore (Tpm.Pcr.extend pcrs 0 p.hypervisor_build : string);
  ignore (Tpm.Pcr.extend pcrs 1 p.host_os_build : string);
  Tpm.Pcr.composite pcrs [ 0; 1 ]

let golden_platform_measurement = platform_composite pristine_platform

type instance = {
  vm : Vm.t;
  domain : Credit_scheduler.domain;
  image_hash_at_launch : string;
  mutable suspended : bool;
}

type t = {
  name : string;
  engine : Sim.Engine.t;
  sched : Credit_scheduler.t;
  cache : Cache.t;
  trust : Tpm.Backend.t option;
  capabilities : string list;
  mem_mb : int;
  mutable mem_used : int;
  table : (string, instance) Hashtbl.t;
}

let create ~engine ~name ?(pcpus = 4) ?(mem_mb = 32768) ?(platform = pristine_platform)
    ?(secure = true) ?(capabilities = []) ?(key_bits = 1024)
    ?(backend = Tpm.Backend.Classic) ?platform_root ~seed () =
  let sched = Credit_scheduler.create ~engine ~pcpus () in
  let trust =
    if secure then begin
      let device_seed = name ^ "|" ^ seed in
      let b = Tpm.Backend.create ~key_bits ?root:platform_root backend ~seed:device_seed () in
      (* Measured boot: hash the platform software into PCRs in load order. *)
      ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs b) 0 platform.hypervisor_build : string);
      ignore (Tpm.Pcr.extend (Tpm.Backend.pcrs b) 1 platform.host_os_build : string);
      Some b
    end
    else None
  in
  {
    name;
    engine;
    sched;
    cache = Cache.create ~engine ();
    trust;
    capabilities = (if secure then capabilities else []);
    mem_mb;
    mem_used = 0;
    table = Hashtbl.create 8;
  }

let name t = t.name
let engine t = t.engine
let scheduler t = t.sched
let cache t = t.cache
let trust_backend t = t.trust
let backend_kind t = Option.map Tpm.Backend.kind t.trust
let is_secure t = t.trust <> None
let capabilities t = t.capabilities
let mem_free_mb t = t.mem_mb - t.mem_used

let launch t ?pin ?(pins = []) vm =
  let need = vm.Vm.flavor.Flavor.mem_mb in
  if need > mem_free_mb t then Error `Insufficient_memory
  else begin
    let domain =
      Credit_scheduler.add_domain t.sched ~name:vm.Vm.vid
        ~weight:(256 * vm.Vm.flavor.Flavor.vcpus)
    in
    List.iteri
      (fun i prog ->
        let pin = match List.nth_opt pins i with Some (Some p) -> Some p | _ -> pin in
        ignore (Credit_scheduler.add_vcpu t.sched domain ?pin prog : Credit_scheduler.vcpu))
      (vm.Vm.programs ());
    let inst =
      { vm; domain; image_hash_at_launch = Image.hash vm.Vm.image; suspended = false }
    in
    Hashtbl.replace t.table vm.Vm.vid inst;
    t.mem_used <- t.mem_used + need;
    Ok inst
  end

let find t vid = Hashtbl.find_opt t.table vid

let instances t = Hashtbl.fold (fun _ i acc -> i :: acc) t.table []

let suspend t vid =
  match find t vid with
  | Some inst when not inst.suspended ->
      Credit_scheduler.pause_domain t.sched inst.domain;
      inst.suspended <- true;
      true
  | Some _ | None -> false

let resume t vid =
  match find t vid with
  | Some inst when inst.suspended ->
      Credit_scheduler.resume_domain t.sched inst.domain;
      inst.suspended <- false;
      true
  | Some _ | None -> false

let destroy t vid =
  match find t vid with
  | Some inst ->
      Credit_scheduler.remove_domain t.sched inst.domain;
      Cache.forget_owner t.cache vid;
      Hashtbl.remove t.table vid;
      t.mem_used <- t.mem_used - inst.vm.Vm.flavor.Flavor.mem_mb;
      true
  | None -> false

let detach t vid =
  match find t vid with
  | Some inst ->
      Credit_scheduler.remove_domain t.sched inst.domain;
      Cache.forget_owner t.cache vid;
      Hashtbl.remove t.table vid;
      t.mem_used <- t.mem_used - inst.vm.Vm.flavor.Flavor.mem_mb;
      Some inst
  | None -> None
