type party = {
  label : string;
  windows : int array;
  status : Core.Report.status;
  evidence : string;
}

type result = {
  bits : int;
  bit_error_rate : float;
  bandwidth_bps : float;
  sender : party;
  receiver : party;
  benign : party;
}

let run ?(seed = 42) () =
  let engine = Sim.Engine.create () in
  let cache = Hypervisor.Cache.create ~engine () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:2 () in
  let prng = Sim.Prng.create seed in
  let bits = Attacks.Covert_channel.random_bits prng 200 in
  let add name pin prog =
    let d = Hypervisor.Credit_scheduler.add_domain sched ~name ~weight:256 in
    ignore (Hypervisor.Credit_scheduler.add_vcpu sched d ~pin prog : Hypervisor.Credit_scheduler.vcpu);
    d
  in
  ignore
    (add "sender" 0 (Attacks.Cache_channel.sender_program cache ~owner:"sender" ~bits ())
      : Hypervisor.Credit_scheduler.domain);
  let recv_prog, stream = Attacks.Cache_channel.receiver_program cache ~owner:"receiver" () in
  ignore (add "receiver" 1 recv_prog : Hypervisor.Credit_scheduler.domain);
  (* A benign VM doing steady memory work in a disjoint set region. *)
  ignore
    (add "benign" 1
       (Hypervisor.Program.make (fun ~now ->
            for set = 40 to 55 do
              ignore
                (Hypervisor.Cache.access cache ~owner:"benign" ~set
                   ~tag:((now / Sim.Time.ms 1) mod 16)
                  : bool)
            done;
            Hypervisor.Program.Compute (Sim.Time.ms 1)))
      : Hypervisor.Credit_scheduler.domain);
  let air = Sim.Time.ms (10 * (List.length bits + 8)) in
  Sim.Engine.run_until engine air;
  let got = Attacks.Cache_channel.received_bits ~count:(List.length bits) (stream ()) in
  let party label owner =
    let windows = Hypervisor.Cache.miss_windows cache ~owner ~since:0 in
    let status, evidence = Core.Interpret.cache_verdict windows in
    { label; windows; status; evidence }
  in
  {
    bits = List.length bits;
    bit_error_rate = Attacks.Covert_channel.bit_error_rate ~sent:bits ~received:got;
    bandwidth_bps = float_of_int (List.length bits) /. Sim.Time.to_sec air;
    sender = party "cache-channel sender" "sender";
    receiver = party "cache-channel receiver" "receiver";
    benign = party "benign memory-heavy VM" "benign";
  }

let print_party p =
  Printf.printf "\n%s  --  %s\n" p.label (Format.asprintf "%a" Core.Report.pp_status p.status);
  Printf.printf "  evidence: %s\n" p.evidence;
  let loud = Array.fold_left (fun acc w -> if w > 0 then acc + 1 else acc) 0 p.windows in
  Printf.printf "  windows: %d total, %d with misses, max %d misses/window\n"
    (Array.length p.windows) loud
    (Array.fold_left max 0 p.windows)

let print r =
  Common.section "Extension: prime-probe cache covert channel (section 4.4.3)";
  Printf.printf "bits: %d, bit error rate: %.3f, bandwidth: %.0f bps\n" r.bits r.bit_error_rate
    r.bandwidth_bps;
  print_party r.sender;
  print_party r.receiver;
  print_party r.benign
