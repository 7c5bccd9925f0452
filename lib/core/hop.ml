module Client = Net.Secure_channel.Client

type error = [ `Connect of Net.Secure_channel.error | `Call of Net.Secure_channel.error ]

type t = {
  net : Net.Network.t;
  identity : Net.Secure_channel.Identity.t;
  ca : Crypto.Rsa.public;
  seed : string -> string;
  address : string -> string;
  channels : (string, Client.t) Hashtbl.t;
  keys : (string, Crypto.Rsa.public) Hashtbl.t;  (* last completed handshake, per peer *)
  mutable ledger : Ledger.t;  (* the running call's: its wire time lands here *)
}

let create ~net ~identity ~ca ~seed ~address =
  let channels = Hashtbl.create 8 and keys = Hashtbl.create 8 in
  { net; identity; ca; seed; address; channels; keys; ledger = Ledger.create () }

let no_such_host = "no such host"

(* The paper's adversary must never be able to convert a detected attack
   (bad MACs, bad signatures, garbage replies) or a misconfigured fleet (no
   such host) into a mere "unknown". *)
let unavailable : Net.Secure_channel.error -> bool = function
  | `Transport m -> not (String.starts_with ~prefix:no_such_host m)
  | e -> Net.Secure_channel.desync e

let cause (`Connect e | `Call e) = e

let transport t ~dst msg =
  let src = t.identity.Net.Secure_channel.Identity.name in
  let result, elapsed = Net.Network.call_with_retry t.net ~src ~dst msg in
  Ledger.add t.ledger "network" elapsed;
  match result with
  | Ok r -> Ok r
  | Error `Dropped -> Error "message dropped"
  | Error (`No_such_host h) -> Error (no_such_host ^ ": " ^ h)

let channel t ~peer =
  match Hashtbl.find_opt t.channels peer with
  | Some ch -> Ok ch
  | None -> (
      Ledger.add t.ledger "handshake-crypto" Costs.handshake_crypto;
      match
        Client.connect ~identity:t.identity ~ca:t.ca ~seed:(t.seed peer) ~peer
          ~transport:(transport t ~dst:(t.address peer))
      with
      | Ok ch ->
          Hashtbl.replace t.channels peer ch;
          Ok ch
      | Error e -> Error (`Connect e))

let call t ~peer ledger request =
  t.ledger <- ledger;
  Result.bind (channel t ~peer) (fun ch ->
      let x, msg = request () in
      let result = Client.call_robust ch msg in
      Hashtbl.replace t.keys peer (Client.peer_key ch);
      match result with
      | Ok raw -> Ok (x, raw)
      | Error e ->
          (* A channel that retries and resets could not fix is unusable. *)
          Hashtbl.remove t.channels peer;
          Error (`Call e))

let peer_key t ~peer = Hashtbl.find_opt t.keys peer

let attempts = 2

let retry ~degradable ~degrade round =
  let rec go attempt =
    match round () with
    | Error e when degradable e -> if attempt < attempts then go (attempt + 1) else Ok (degrade e)
    | result -> result
  in
  go 1
