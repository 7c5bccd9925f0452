(* Deterministic fault injection on the simulated wire.  Unlike the active
   attackers in lib/attacks (which try to subvert the protocol), these model
   the paper's availability threat: a lossy or garbling network leg that the
   attestation path must survive through retries and channel resets. *)

(* Flip the low bit of the first byte. *)
let garble payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
    Bytes.to_string b
  end

let drop_nth n =
  if n <= 0 then invalid_arg "Fault.drop_nth: n must be positive";
  let count = ref 0 in
  fun (_ : Network.message) ->
    incr count;
    if !count mod n = 0 then Network.Drop else Network.Pass

let garble_nth n =
  if n <= 0 then invalid_arg "Fault.garble_nth: n must be positive";
  let count = ref 0 in
  fun (msg : Network.message) ->
    incr count;
    if !count mod n = 0 then Network.Replace (garble msg.Network.payload)
    else Network.Pass

let drop_first n =
  let count = ref 0 in
  fun (_ : Network.message) ->
    incr count;
    if !count <= n then Network.Drop else Network.Pass

let lossy ?(garble_p = 0.0) ~drop_p ~seed () =
  if drop_p < 0.0 || drop_p > 1.0 || garble_p < 0.0 || garble_p > 1.0 then
    invalid_arg "Fault.lossy: probabilities must be in [0, 1]";
  let prng = Sim.Prng.create seed in
  fun (msg : Network.message) ->
    let x = Sim.Prng.float prng 1.0 in
    if x < drop_p then Network.Drop
    else if x < drop_p +. garble_p then Network.Replace (garble msg.Network.payload)
    else Network.Pass

let blackout () (_ : Network.message) = Network.Drop
