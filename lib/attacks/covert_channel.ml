(* CPU occupation encoding a 0 and (by default) a 1, the idle time after
   each, the sender's initial idle period to accumulate credits, and the
   receiver's measurement granularity. *)
let short_burst = Sim.Time.ms 5
let default_long_burst = Sim.Time.ms 20
let short_gap = Sim.Time.ms 10
let long_gap = Sim.Time.ms 30
let settle = Sim.Time.ms 100
let chunk = Sim.Time.us 500

let sender_program ?(long_burst = default_long_burst) ~bits () =
  let queue = ref bits in
  let phase = ref `Settle in
  Hypervisor.Program.make (fun ~now:_ ->
      match !phase with
      | `Settle ->
          phase := `Burst;
          Hypervisor.Program.Sleep settle
      | `Burst -> (
          match !queue with
          | [] -> Hypervisor.Program.Halt
          | bit :: _ ->
              phase := `Gap;
              Hypervisor.Program.Compute (if bit then long_burst else short_burst))
      | `Gap -> (
          match !queue with
          | [] -> Hypervisor.Program.Halt
          | bit :: rest ->
              queue := rest;
              phase := `Burst;
              Hypervisor.Program.Sleep (if bit then long_gap else short_gap)))

let receiver_program () =
  let stamps = ref [] in
  let prog =
    Hypervisor.Program.make (fun ~now ->
        stamps := now :: !stamps;
        Hypervisor.Program.Compute chunk)
  in
  (prog, fun () -> List.rev !stamps)

let decode ?(long_burst = default_long_burst) stamps =
  (* A gap between chunk completions larger than the chunk itself means the
     receiver was preempted: the excess is the sender's burst length. *)
  let threshold = chunk + Sim.Time.ms 2 in
  let cut = (short_burst + long_burst) / 2 in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        let gap = b - a in
        if gap > threshold then begin
          let burst = gap - chunk in
          go ((burst > cut) :: acc) rest
        end
        else go acc rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] stamps

let bit_error_rate ~sent ~received =
  match sent with
  | [] -> 0.0
  | _ ->
      let n = List.length sent in
      let rec count s r errs =
        match (s, r) with
        | [], _ -> errs
        | _ :: s', [] -> count s' [] (errs + 1)
        | sb :: s', rb :: r' -> count s' r' (if Bool.equal sb rb then errs else errs + 1)
      in
      float_of_int (count sent received 0) /. float_of_int n

let transmission_time ~bits =
  let per_bit = (short_burst + default_long_burst + short_gap + long_gap) / 2 in
  settle + (bits * per_bit)

let random_bits prng n = List.init n (fun _ -> Sim.Prng.bool prng)

let receiver_vm ~vid ~owner () =
  let prog, stamps = receiver_program () in
  let first = ref (Some prog) in
  let vm =
    Hypervisor.Vm.make ~vid ~owner ~image:Hypervisor.Image.ubuntu
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () ->
        match !first with
        | Some p ->
            first := None;
            [ p ]
        | None -> [ fst (receiver_program ()) ])
      ()
  in
  (vm, stamps)
