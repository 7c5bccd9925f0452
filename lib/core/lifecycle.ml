let scheduling_time ~considered =
  Costs.scheduling_base + (considered * Costs.scheduling_per_candidate)

let networking_time () = Costs.networking

let mapping_time (flavor : Hypervisor.Flavor.t) =
  Costs.mapping_base + (flavor.disk_gb * Costs.mapping_per_gb)

let spawning_time image (flavor : Hypervisor.Flavor.t) =
  Costs.spawn_base
  + (Hypervisor.Image.size_mb image * Costs.spawn_per_image_mb)
  + (flavor.mem_mb * Costs.spawn_per_mem_gb / 1024)

let termination_time () = Costs.terminate_base

let suspension_time (flavor : Hypervisor.Flavor.t) =
  Costs.suspend_base + (flavor.mem_mb * Costs.suspend_per_mem_gb / 1024)

let resume_time (flavor : Hypervisor.Flavor.t) =
  Costs.resume_base + (flavor.mem_mb * Costs.suspend_per_mem_gb / 2048)

let migration_transfer_time ~net (flavor : Hypervisor.Flavor.t) =
  let dirty_bytes =
    int_of_float (float_of_int (flavor.mem_mb * 1024 * 1024) *. Costs.migration_dirty_fraction)
  in
  Costs.migration_base + Net.Network.transfer_time net ~bytes:dirty_bytes
