type result = {
  bits_sent : bool list;
  bits_received : bool list;
  bit_error_rate : float;
  bandwidth_bps : float;
  trace : (float * float) list;
}

(* Bits transmitted in one run. *)
let bits = 96

let run ?(seed = 42) () =
  let prng = Sim.Prng.create seed in
  let payload = Attacks.Covert_channel.random_bits prng bits in
  let engine = Sim.Engine.create () in
  let sched = Hypervisor.Credit_scheduler.create ~engine ~pcpus:1 () in
  let sender = Hypervisor.Credit_scheduler.add_domain sched ~name:"sender" ~weight:256 in
  let receiver = Hypervisor.Credit_scheduler.add_domain sched ~name:"receiver" ~weight:256 in
  Hypervisor.Credit_scheduler.set_burst_trace sender true;
  let sender_prog = Attacks.Covert_channel.sender_program ~bits:payload () in
  let receiver_prog, stamps = Attacks.Covert_channel.receiver_program () in
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched sender ~pin:0 sender_prog
           : Hypervisor.Credit_scheduler.vcpu);
  ignore (Hypervisor.Credit_scheduler.add_vcpu sched receiver ~pin:0 receiver_prog
           : Hypervisor.Credit_scheduler.vcpu);
  let air_time = Attacks.Covert_channel.transmission_time ~bits in
  Sim.Engine.run_until engine (air_time + Sim.Time.sec 2);
  let bits_received = Attacks.Covert_channel.decode (stamps ()) in
  let ber = Attacks.Covert_channel.bit_error_rate ~sent:payload ~received:bits_received in
  {
    bits_sent = payload;
    bits_received;
    bit_error_rate = ber;
    bandwidth_bps = float_of_int bits /. Sim.Time.to_sec air_time;
    trace =
      List.map
        (fun (at, len) -> (Sim.Time.to_ms at, Sim.Time.to_ms len))
        (Hypervisor.Credit_scheduler.burst_trace sender);
  }

let print r =
  Common.section "Figure 4: cross-VM covert information leakage";
  Printf.printf "bits sent: %d, decoded: %d, bit error rate: %.3f, bandwidth: %.0f bps\n"
    (List.length r.bits_sent) (List.length r.bits_received) r.bit_error_rate r.bandwidth_bps;
  Printf.printf "%-12s %-12s\n" "time (ms)" "interval (ms)";
  let shown = ref 0 in
  List.iter
    (fun (at, len) ->
      if !shown < 40 then begin
        incr shown;
        Printf.printf "%-12.1f %-8.1f %s\n" at len (Common.bar (len /. 30.0 *. 3.0))
      end)
    r.trace;
  if List.length r.trace > 40 then
    Printf.printf "... (%d more intervals)\n" (List.length r.trace - 40)
