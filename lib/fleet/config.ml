type config = {
  seed : int;
  servers : int;
  vms : int;
  as_count : int;
  as_capacity : int;
  queue_depth : int;
  ttl : Sim.Time.t;
  rate_per_s : float;
  duration : Sim.Time.t;
  drain : Sim.Time.t;
  unhealthy_p : float;
  churn_period : Sim.Time.t;
  hot_vms : int;
  hot_p : float;
  customer_p : float;
  periodic_p : float;
  batch_max : int;
  batch_window : Sim.Time.t;
  audit_checkpoint : Sim.Time.t;
  backends : Tpm.Backend.kind array;
  domains : int;
  epoch : Sim.Time.t;
  monitor : Monitor.config option;
}

let default_config =
  {
    seed = 2015;
    servers = 200;
    vms = 2000;
    as_count = 1;
    as_capacity = 1;
    queue_depth = 16;
    ttl = 0;
    rate_per_s = 8.0;
    duration = Sim.Time.sec 30;
    drain = Sim.Time.sec 30;
    unhealthy_p = 0.05;
    churn_period = Sim.Time.sec 5;
    hot_vms = 64;
    hot_p = 0.8;
    customer_p = 0.2;
    periodic_p = 0.7;
    batch_max = 1;
    batch_window = 0;
    audit_checkpoint = 0;
    backends = [| Tpm.Backend.Classic |];
    domains = 1;
    epoch = Sim.Time.ms 50;
    monitor = None;
  }
