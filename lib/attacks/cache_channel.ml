(* One bit per 10 ms round, signalled over cache sets 0 to 15, starting at
   round 4. *)
let round = Sim.Time.ms 10
let group = 16
let start_round = 4
let target_sets = List.init group Fun.id

let thrash cache ~owner =
  List.iter (fun set -> Hypervisor.Cache.fill_set cache ~owner ~set) target_sets

(* The sender wakes just after each round boundary, emits (or not), and
   sleeps to the next boundary. *)
let sender_program cache ~owner ~bits () =
  let queue = ref bits in
  Hypervisor.Program.make (fun ~now ->
      let k = now / round in
      if k < start_round then
        Hypervisor.Program.Sleep ((start_round * round) + Sim.Time.us 100 - now)
      else begin
        match !queue with
        | [] -> Hypervisor.Program.Halt
        | bit :: rest ->
            queue := rest;
            if bit then thrash cache ~owner;
            Hypervisor.Program.Sleep (((k + 1) * round) + Sim.Time.us 100 - now)
      end)

(* The receiver probes (and thereby re-primes) shortly before each round
   boundary. *)
let receiver_program cache ~owner () =
  let capacity = group * Hypervisor.Cache.ways cache in
  let results = ref [] in
  let primed = ref false in
  let prog =
    Hypervisor.Program.make (fun ~now ->
        if not !primed then begin
          thrash cache ~owner;
          primed := true;
          let k = now / round in
          Hypervisor.Program.Sleep (((k + 1) * round) - Sim.Time.us 200 - now)
        end
        else begin
          let k = now / round in
          let misses = Hypervisor.Cache.probe cache ~owner ~sets:target_sets in
          results := (k, misses > capacity / 2) :: !results;
          Hypervisor.Program.Sleep round
        end)
  in
  (prog, fun () -> List.rev !results)

let received_bits ~count stream =
  List.filter_map
    (fun (round, bit) ->
      if round >= start_round && round < start_round + count then Some bit else None)
    stream
