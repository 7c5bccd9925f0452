type params = { round : Sim.Time.t; first_set : int; group : int; start_round : int }

let default_params = { round = Sim.Time.ms 10; first_set = 0; group = 16; start_round = 4 }

let target_sets p = List.init p.group (fun i -> p.first_set + i)

let thrash cache ~owner p =
  List.iter (fun set -> Hypervisor.Cache.fill_set cache ~owner ~set) (target_sets p)

(* The sender wakes just after each round boundary, emits (or not), and
   sleeps to the next boundary. *)
let sender_program cache ~owner ?(params = default_params) ~bits () =
  let queue = ref bits in
  let p = params in
  Hypervisor.Program.make (fun ~now ->
      let k = now / p.round in
      if k < p.start_round then
        Hypervisor.Program.Sleep ((p.start_round * p.round) + Sim.Time.us 100 - now)
      else begin
        match !queue with
        | [] -> Hypervisor.Program.Halt
        | bit :: rest ->
            queue := rest;
            if bit then thrash cache ~owner p;
            Hypervisor.Program.Sleep (((k + 1) * p.round) + Sim.Time.us 100 - now)
      end)

(* The receiver probes (and thereby re-primes) shortly before each round
   boundary. *)
let receiver_program cache ~owner ?(params = default_params) () =
  let p = params in
  let capacity = p.group * Hypervisor.Cache.ways cache in
  let results = ref [] in
  let primed = ref false in
  let prog =
    Hypervisor.Program.make (fun ~now ->
        if not !primed then begin
          List.iter (fun set -> Hypervisor.Cache.fill_set cache ~owner ~set) (target_sets p);
          primed := true;
          let k = now / p.round in
          Hypervisor.Program.Sleep (((k + 1) * p.round) - Sim.Time.us 200 - now)
        end
        else begin
          let k = now / p.round in
          let misses = Hypervisor.Cache.probe cache ~owner ~sets:(target_sets p) in
          results := (k, misses > capacity / 2) :: !results;
          Hypervisor.Program.Sleep (p.round)
        end)
  in
  (prog, fun () -> List.rev !results)

let received_bits ?(params = default_params) ~count stream =
  let p = params in
  List.filter_map
    (fun (round, bit) ->
      if round >= p.start_round && round < p.start_round + count then Some bit else None)
    stream
