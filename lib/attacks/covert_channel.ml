type params = {
  short_burst : Sim.Time.t;
  long_burst : Sim.Time.t;
  short_gap : Sim.Time.t;
  long_gap : Sim.Time.t;
  settle : Sim.Time.t;
  chunk : Sim.Time.t;
}

let default_params =
  {
    short_burst = Sim.Time.ms 5;
    long_burst = Sim.Time.ms 20;
    short_gap = Sim.Time.ms 10;
    long_gap = Sim.Time.ms 30;
    settle = Sim.Time.ms 100;
    chunk = Sim.Time.us 500;
  }

let sender_program ?(params = default_params) ~bits () =
  let queue = ref bits in
  let phase = ref `Settle in
  Hypervisor.Program.make (fun ~now:_ ->
      match !phase with
      | `Settle ->
          phase := `Burst;
          Hypervisor.Program.Sleep params.settle
      | `Burst -> (
          match !queue with
          | [] -> Hypervisor.Program.Halt
          | bit :: _ ->
              phase := `Gap;
              Hypervisor.Program.Compute (if bit then params.long_burst else params.short_burst))
      | `Gap -> (
          match !queue with
          | [] -> Hypervisor.Program.Halt
          | bit :: rest ->
              queue := rest;
              phase := `Burst;
              Hypervisor.Program.Sleep (if bit then params.long_gap else params.short_gap)))

let receiver_program ?(params = default_params) () =
  let stamps = ref [] in
  let prog =
    Hypervisor.Program.make (fun ~now ->
        stamps := now :: !stamps;
        Hypervisor.Program.Compute params.chunk)
  in
  (prog, fun () -> List.rev !stamps)

let decode ?(params = default_params) stamps =
  (* A gap between chunk completions larger than the chunk itself means the
     receiver was preempted: the excess is the sender's burst length. *)
  let threshold = params.chunk + Sim.Time.ms 2 in
  let cut = (params.short_burst + params.long_burst) / 2 in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        let gap = b - a in
        if gap > threshold then begin
          let burst = gap - params.chunk in
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

let transmission_time ?(params = default_params) ~bits () =
  let per_bit =
    (params.short_burst + params.long_burst + params.short_gap + params.long_gap) / 2
  in
  params.settle + (bits * per_bit)

let random_bits prng n = List.init n (fun _ -> Sim.Prng.bool prng)

let receiver_vm ~vid ~owner ?(params = default_params) () =
  let prog, stamps = receiver_program ~params () in
  let first = ref (Some prog) in
  let vm =
    Hypervisor.Vm.make ~vid ~owner ~image:Hypervisor.Image.ubuntu
      ~flavor:Hypervisor.Flavor.small
      ~programs:(fun () ->
        match !first with
        | Some p ->
            first := None;
            [ p ]
        | None -> [ fst (receiver_program ~params ()) ])
      ()
  in
  (vm, stamps)
