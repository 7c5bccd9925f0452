let platform_measurement server =
  match Hypervisor.Server.trust_backend server with
  | None -> None
  | Some tm -> Some (Tpm.Pcr.composite (Tpm.Backend.pcrs tm) [ 0; 1 ])

let image_measurement server ~vid =
  match Hypervisor.Server.find server vid with
  | None -> None
  | Some inst -> Some inst.image_hash_at_launch
