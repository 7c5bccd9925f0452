(* CloudMonatt command-line interface.

   Subcommands:
     experiment  -- run entries of the experiment table (fig4..fig11, verify, ..., all)
     verify      -- check the attestation protocol symbolically
     protocol    -- type-check, estimate, run and verify one protocol term
     launch      -- spin up a simulated cloud, launch a VM, attest properties
     catalog     -- list supported properties, images, flavors, workloads *)

open Cmdliner

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- experiment --------------------------------------------------------- *)

(* Runs every selected entry (a failing gate must not skip the rest) and
   exits 1 if any gate failed, like bench/main.exe. *)
let run_entries ~seed entries =
  let outcomes = List.map (fun (e : Experiments.Registry.entry) -> e.run ~seed) entries in
  if List.for_all (fun (o : Experiments.Registry.outcome) -> o.ok) outcomes then 0 else 1

let experiment_names =
  List.map (fun (e : Experiments.Registry.entry) -> e.name) Experiments.Registry.entries
  @ [ "all" ]

let experiment_cmd =
  let names =
    let doc = "Experiments to run: " ^ String.concat ", " experiment_names ^ "." in
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run seed names =
    match Experiments.Registry.select names with
    | Ok entries -> run_entries ~seed entries
    | Error unknown ->
        Printf.eprintf "unknown experiment%s: %s (valid: %s)\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " experiment_names);
        2
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's evaluation figures")
    Term.(const (fun seed names -> Stdlib.exit (run seed names)) $ seed_arg $ names)

(* --- verify -------------------------------------------------------------- *)

let verify_cmd =
  let run () =
    run_entries ~seed:2015
      (List.filter
         (fun (e : Experiments.Registry.entry) -> e.name = "verify")
         Experiments.Registry.entries)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Symbolically verify the attestation protocol (section 7.2.2)")
    Term.(const (fun () -> Stdlib.exit (run ())) $ const ())

(* --- protocol -------------------------------------------------------------- *)

let protocol_cmd =
  let term_arg =
    let doc =
      "Protocol term, e.g. a0.0, (a0.0>a1.1), (a0.0&Qa1.0), d1:a2.0, l0:a0.1; \
       a '-' after the operator weakens it (a-0.0 drops the nonce).  An appraisal \
       also takes the marks e (unencrypted hops), k (leaked channel keys), m \
       (unsigned measurements) and r (unsigned reports), each at most once and \
       in the order -ekmr, e.g. akm0.0."
    in
    Arg.(value & pos 0 string "a0.0" & info [] ~docv:"TERM" ~doc)
  in
  let servers_arg =
    Arg.(value & opt int 3 & info [ "servers" ] ~docv:"N" ~doc:"Cloud servers (one VM each).")
  in
  let clusters_arg =
    Arg.(value & opt int 2 & info [ "clusters" ] ~docv:"N" ~doc:"Attestation-server clusters.")
  in
  let run seed line servers clusters =
    match Copland.Phrase.of_string line with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        2
    | Ok term -> (
        Printf.printf "term      %s  (%d appraisal%s%s)\n"
          (Copland.Phrase.to_string term)
          (Copland.Phrase.appraisals term)
          (if Copland.Phrase.appraisals term = 1 then "" else "s")
          (if Copland.Phrase.weakened term then ", weakened" else "");
        let config =
          {
            Core.Cloud.default_config with
            seed;
            key_bits = 512;
            num_servers = servers;
            num_attestation_servers = clusters;
          }
        in
        let cloud = Core.Cloud.build ~config () in
        let ctl = Core.Cloud.controller cloud in
        let vids =
          Array.init servers (fun _ ->
              match
                Core.Controller.launch ctl
                  {
                    Core.Controller.owner = "cli-user";
                    image = "cirros";
                    flavor = "small";
                    properties = Core.Property.all;
                    workload = "";
                    pins = [];
                  }
              with
              | Ok info -> info.Core.Commands.vid
              | Error _ -> failwith "launch failed")
        in
        let env = Copland.Env.of_cloud cloud ~vids in
        match Copland.Typing.check env.Copland.Env.typing term with
        | Error e ->
            Format.printf "ill-typed: %a@." Copland.Typing.pp_error e;
            1
        | Ok () -> (
            Format.printf "estimate  %a@." Copland.Estimate.pp
              (Copland.Estimate.of_phrase env term);
            let report = Copland.Dy.verify term in
            Format.printf "dolev-yao %s@."
              (if Copland.Dy.holds report then "all checks hold"
               else "VIOLATED: " ^ String.concat ", " (Copland.Dy.violated report));
            List.iter
              (fun a -> Format.printf "  attack: %a@." Copland.Dy.pp_attack a)
              report.Copland.Dy.attacks;
            match Copland.Interp.run cloud ~vids term with
            | Error e ->
                Printf.printf "run       failed: %s\n" e;
                1
            | Ok outcome ->
                Format.printf "run       %a (%d leaf appraisal%s)@." Core.Report.pp_status
                  outcome.Copland.Interp.status
                  (List.length outcome.Copland.Interp.leaves)
                  (if List.length outcome.Copland.Interp.leaves = 1 then "" else "s");
                List.iter
                  (fun (l : Copland.Interp.leaf_result) ->
                    match l.Copland.Interp.report with
                    | Ok r ->
                        Format.printf "  slot %d %-22s %a@." l.Copland.Interp.slot
                          (Core.Property.to_string l.Copland.Interp.property)
                          Core.Report.pp_status
                          r.Core.Protocol.report.Core.Report.status
                    | Error e ->
                        Printf.printf "  slot %d %-22s error: %s\n" l.Copland.Interp.slot
                          (Core.Property.to_string l.Copland.Interp.property)
                          e)
                  outcome.Copland.Interp.leaves;
                0))
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:"Type-check, estimate, Dolev-Yao-verify and run one protocol term")
    Term.(const (fun seed line s c -> Stdlib.exit (run seed line s c))
          $ seed_arg $ term_arg $ servers_arg $ clusters_arg)

(* --- launch ---------------------------------------------------------------- *)

let property_conv =
  let parse s =
    match Core.Property.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown property %s (known: %s)" s
               (String.concat ", " (List.map Core.Property.to_string Core.Property.all))))
  in
  Arg.conv (parse, Core.Property.pp)

let launch_cmd =
  let image =
    Arg.(value & opt string "ubuntu" & info [ "image" ] ~docv:"IMAGE" ~doc:"VM image name.")
  in
  let flavor =
    Arg.(value & opt string "small" & info [ "flavor" ] ~docv:"FLAVOR" ~doc:"VM flavor.")
  in
  let workload =
    Arg.(value & opt string "busy" & info [ "workload" ] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let properties =
    Arg.(
      value
      & opt_all property_conv Core.Property.all
      & info [ "property"; "p" ] ~docv:"PROPERTY" ~doc:"Security property to monitor (repeatable).")
  in
  let run seed image flavor workload properties =
    let config = { Core.Cloud.default_config with seed; key_bits = 512 } in
    let cloud = Core.Cloud.build ~config () in
    let customer = Core.Cloud.Customer.create cloud ~name:"cli-user" in
    Printf.printf "Launching %s/%s with workload %s...\n%!" image flavor workload;
    match Core.Cloud.Customer.launch customer ~image ~flavor ~properties ~workload () with
    | Error e -> Format.printf "launch failed: %a@." Core.Cloud.Customer.pp_error e
    | Ok info ->
        Printf.printf "VM %s launched. Stages:\n" info.Core.Commands.vid;
        List.iter
          (fun (stage, cost) -> Printf.printf "  %-12s %6.0f ms\n" stage (Sim.Time.to_ms cost))
          info.Core.Commands.stages;
        Core.Cloud.run_for cloud (Sim.Time.sec 5);
        print_endline "\nAttestation results after 5 s of simulated runtime:";
        List.iter
          (fun property ->
            match Core.Cloud.Customer.attest customer ~vid:info.Core.Commands.vid ~property with
            | Ok report ->
                Format.printf "  %-22s %a  (%s)@."
                  (Core.Property.to_string property)
                  Core.Report.pp_status report.Core.Report.status report.Core.Report.evidence
            | Error e ->
                Format.printf "  %-22s error: %a@."
                  (Core.Property.to_string property)
                  Core.Cloud.Customer.pp_error e)
          properties
  in
  Cmd.v
    (Cmd.info "launch" ~doc:"Launch a monitored VM in a simulated cloud and attest it")
    Term.(const run $ seed_arg $ image $ flavor $ workload $ properties)

(* --- catalog ------------------------------------------------------------------ *)

let catalog_cmd =
  let run () =
    print_endline "Security properties (paper section 4):";
    List.iter
      (fun p -> Printf.printf "  %s\n" (Core.Property.to_string p))
      Core.Property.all;
    print_endline "\nImages:";
    List.iter
      (fun i -> Printf.printf "  %-8s %4d MB\n" (Hypervisor.Image.name i) (Hypervisor.Image.size_mb i))
      [ Hypervisor.Image.cirros; Hypervisor.Image.fedora; Hypervisor.Image.ubuntu ];
    print_endline "\nFlavors:";
    List.iter (fun f -> Format.printf "  %a@." Hypervisor.Flavor.pp f) Hypervisor.Flavor.all;
    print_endline "\nWorkloads: idle, busy, database, file, web, app, stream, mail"
  in
  Cmd.v (Cmd.info "catalog" ~doc:"List properties, images, flavors and workloads")
    Term.(const run $ const ())

let main_cmd =
  let doc = "CloudMonatt: security health monitoring and attestation of VMs (ISCA'15)" in
  Cmd.group (Cmd.info "cloudmonatt" ~version:"1.0.0" ~doc)
    [ experiment_cmd; verify_cmd; protocol_cmd; launch_cmd; catalog_cmd ]

let () = exit (Cmd.eval main_cmd)
