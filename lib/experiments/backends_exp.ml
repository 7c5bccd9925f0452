(* Trust-backend comparison: a heterogeneous fleet smoke run plus two
   end-to-end lifecycle campaigns that the CI gate watches.

   - Fleet: three AS shards, one per backend kind, served split reported
     per backend (the cheaper vTPM/CVM crypto shifts capacity).
   - e-vTPM: migrate-without-rebind.  Save the vTPM state, restore it
     (what a migration or rollback carries) and attest: every quote from
     the restored state must come back as a signed Compromised verdict
     ([healthy_after_stale] must be 0 — that is the security claim) until
     the Privacy-CA rebind, after which attestation is Healthy again.
   - CVM: hardware reports verify against the vendor platform root alone,
     with the cloud operator outside the TCB. *)

open Core

type campaign = {
  cycles : int;
  healthy_fresh : int;  (** fresh attestations before any save/restore *)
  stale_attests : int;  (** attestations issued against restored state *)
  healthy_after_stale : int;  (** MUST be 0 *)
  compromised_after_stale : int;
  rebinds : int;
  healthy_after_rebind : int;
}

type cvm_check = { attests : int; healthy : int; root_present : bool }

type result = {
  seed : int;
  fleet : Fleet.Driver.result;
  campaign : campaign;
  cvm : cvm_check;
}

let property = Core.Property.Startup_integrity

let launch_vm customer =
  match
    Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
      ~properties:[ property ] ()
  with
  | Ok info -> info.Core.Commands.vid
  | Error e ->
      failwith (Format.asprintf "backends: launch failed: %a" Cloud.Customer.pp_error e)

let attest_status customer ~vid =
  match Cloud.Customer.attest customer ~vid ~property with
  | Ok r -> r.Core.Report.status
  | Error e ->
      failwith (Format.asprintf "backends: attest failed: %a" Cloud.Customer.pp_error e)

let or_fail what = function
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "backends: %s: %s" what msg)

(* Save/restore/rebind cycles against one VM's e-vTPM host. *)
let run_campaign ~seed ~cycles =
  let cloud =
    Cloud.build
      ~config:
        {
          Cloud.default_config with
          seed;
          key_bits = 512;
          backend_of = (fun _ -> Tpm.Backend.Evtpm);
        }
      ()
  in
  let customer = Cloud.Customer.create cloud ~name:"backends-exp" in
  let vid = launch_vm customer in
  let host =
    match Core.Controller.vm_host (Cloud.controller cloud) ~vid with
    | Some h -> h
    | None -> failwith "backends: launched VM has no host"
  in
  let c =
    ref
      {
        cycles;
        healthy_fresh = 0;
        stale_attests = 0;
        healthy_after_stale = 0;
        compromised_after_stale = 0;
        rebinds = 0;
        healthy_after_rebind = 0;
      }
  in
  for _ = 1 to cycles do
    (match attest_status customer ~vid with
    | Core.Report.Healthy -> c := { !c with healthy_fresh = !c.healthy_fresh + 1 }
    | s ->
        failwith
          (Format.asprintf "backends: fresh attest not Healthy: %a" Core.Report.pp_status
             s));
    let state = or_fail "vtpm_save" (Cloud.vtpm_save cloud ~server:host) in
    or_fail "vtpm_restore" (Cloud.vtpm_restore cloud ~server:host state);
    (match attest_status customer ~vid with
    | Core.Report.Healthy ->
        c :=
          {
            !c with
            stale_attests = !c.stale_attests + 1;
            healthy_after_stale = !c.healthy_after_stale + 1;
          }
    | Core.Report.Compromised _ ->
        c :=
          {
            !c with
            stale_attests = !c.stale_attests + 1;
            compromised_after_stale = !c.compromised_after_stale + 1;
          }
    | _ -> c := { !c with stale_attests = !c.stale_attests + 1 });
    let _epoch = or_fail "vtpm_rebind" (Cloud.vtpm_rebind cloud ~server:host) in
    c := { !c with rebinds = !c.rebinds + 1 };
    match attest_status customer ~vid with
    | Core.Report.Healthy ->
        c := { !c with healthy_after_rebind = !c.healthy_after_rebind + 1 }
    | s ->
        failwith
          (Format.asprintf "backends: post-rebind attest not Healthy: %a"
             Core.Report.pp_status s)
  done;
  !c

let run_cvm ~seed ~attests =
  let cloud =
    Cloud.build
      ~config:
        {
          Cloud.default_config with
          seed;
          key_bits = 512;
          backend_of = (fun _ -> Tpm.Backend.Cvm_report);
        }
      ()
  in
  let customer = Cloud.Customer.create cloud ~name:"backends-cvm" in
  let vid = launch_vm customer in
  let healthy = ref 0 in
  for _ = 1 to attests do
    match attest_status customer ~vid with
    | Core.Report.Healthy -> incr healthy
    | _ -> ()
  done;
  { attests; healthy = !healthy; root_present = Cloud.platform_root cloud <> None }

let fleet_config ~seed =
  {
    Fleet.Driver.default_config with
    seed;
    servers = 30;
    vms = 150;
    as_count = 3;
    ttl = 0;
    rate_per_s = 24.0;
    duration = Sim.Time.sec 5;
    drain = Sim.Time.sec 5;
    hot_vms = 16;
    backends = [| Tpm.Backend.Classic; Tpm.Backend.Evtpm; Tpm.Backend.Cvm_report |];
  }

let run ?(seed = 2015) () =
  let fleet = Fleet.Driver.run (fleet_config ~seed) in
  let campaign = run_campaign ~seed ~cycles:3 in
  let cvm = run_cvm ~seed:(seed + 1) ~attests:2 in
  { seed; fleet; campaign; cvm }

(* The acceptance gate: every backend in the fleet mix served traffic,
   restored-but-not-rebound vTPM state never attested Healthy, rebinding
   always recovered, and CVM reports verified against the vendor root. *)
let clean { fleet; campaign; cvm; _ } =
  Array.for_all
    (fun kind ->
      match
        List.assoc_opt (Tpm.Backend.kind_to_string kind) fleet.Fleet.Driver.served_by_backend
      with
      | Some n -> n > 0
      | None -> false)
    fleet.Fleet.Driver.config.Fleet.Driver.backends
  && campaign.healthy_after_stale = 0
  && campaign.stale_attests > 0
  && campaign.compromised_after_stale = campaign.stale_attests
  && campaign.rebinds > 0
  && campaign.healthy_after_rebind = campaign.rebinds
  && cvm.attests > 0 && cvm.healthy = cvm.attests && cvm.root_present

let print ({ seed; fleet; campaign; cvm } as r) =
  Common.section (Printf.sprintf "Trust backends: classic / e-vTPM / CVM (seed %d)" seed);
  Printf.printf "Heterogeneous fleet (3 AS shards, one backend each):\n";
  Printf.printf "  offered %d  served %d  (%.2f/s served)\n" fleet.Fleet.Driver.offered
    fleet.Fleet.Driver.served fleet.Fleet.Driver.served_rps;
  let duration_s = Sim.Time.to_sec fleet.Fleet.Driver.config.Fleet.Driver.duration in
  List.iter
    (fun (kind, n) ->
      Printf.printf "  %-8s %5d served  %6.2f/s  %s\n" kind n
        (float_of_int n /. duration_s)
        (Common.bar (float_of_int n /. duration_s)))
    fleet.Fleet.Driver.served_by_backend;
  Printf.printf "\ne-vTPM migrate-without-rebind campaign (%d cycles):\n" campaign.cycles;
  Printf.printf "  fresh Healthy            %d\n" campaign.healthy_fresh;
  Printf.printf "  stale attests            %d\n" campaign.stale_attests;
  Printf.printf "  Healthy after stale      %d  (must be 0)\n" campaign.healthy_after_stale;
  Printf.printf "  Compromised after stale  %d\n" campaign.compromised_after_stale;
  Printf.printf "  Healthy after rebind     %d / %d rebinds\n" campaign.healthy_after_rebind
    campaign.rebinds;
  Printf.printf "\nCVM hardware reports (vendor root, operator outside TCB):\n";
  Printf.printf "  platform root present    %b\n" cvm.root_present;
  Printf.printf "  Healthy                  %d / %d attests\n" cvm.healthy cvm.attests;
  Printf.printf "\n%s\n"
    (if clean r then "backend gates hold: stale state never attested Healthy"
     else "BACKEND GATE VIOLATION")

let to_json ({ seed; fleet; campaign; cvm } as r) =
  let duration_s = Sim.Time.to_sec fleet.Fleet.Driver.config.Fleet.Driver.duration in
  Json.Obj
    [
      ("experiment", Json.Str "backends");
      ("seed", Json.Int seed);
      ( "fleet",
        Json.Obj
          [
            ( "mix",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun k -> Json.Str (Tpm.Backend.kind_to_string k))
                      fleet.Fleet.Driver.config.Fleet.Driver.backends)) );
            ("offered", Json.Int fleet.Fleet.Driver.offered);
            ("served", Json.Int fleet.Fleet.Driver.served);
            ("served_rps", Json.Float fleet.Fleet.Driver.served_rps);
            ( "served_by_backend",
              Json.Obj
                (List.map
                   (fun (k, n) -> (k, Json.Int n))
                   fleet.Fleet.Driver.served_by_backend) );
            ( "served_rps_by_backend",
              Json.Obj
                (List.map
                   (fun (k, n) -> (k, Json.Float (float_of_int n /. duration_s)))
                   fleet.Fleet.Driver.served_by_backend) );
          ] );
      ( "evtpm_campaign",
        Json.Obj
          [
            ("cycles", Json.Int campaign.cycles);
            ("healthy_fresh", Json.Int campaign.healthy_fresh);
            ("stale_attests", Json.Int campaign.stale_attests);
            ("healthy_after_stale", Json.Int campaign.healthy_after_stale);
            ("compromised_after_stale", Json.Int campaign.compromised_after_stale);
            ("rebinds", Json.Int campaign.rebinds);
            ("healthy_after_rebind", Json.Int campaign.healthy_after_rebind);
          ] );
      ( "cvm",
        Json.Obj
          [
            ("root_present", Json.Bool cvm.root_present);
            ("attests", Json.Int cvm.attests);
            ("healthy", Json.Int cvm.healthy);
          ] );
      ("clean", Json.Bool (clean r));
    ]
