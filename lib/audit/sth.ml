type t = {
  log_id : string;
  size : int;
  root : string;
  at : Sim.Time.t;
  signature : string;
}

(* The signed payload is domain-separated from every other RSA signature in
   the system (AS reports, quotes, certificates), so an STH can never be
   replayed as one of those or vice versa. *)
let payload ~log_id ~size ~root ~at =
  Wire.Codec.encode (fun e ->
      Wire.Codec.Enc.str e "audit-sth|";
      Wire.Codec.Enc.str e log_id;
      Wire.Codec.Enc.int e size;
      Wire.Codec.Enc.str e root;
      Wire.Codec.Enc.int e at)

let sign key ~log_id ~size ~root ~at =
  { log_id; size; root; at; signature = Crypto.Rsa.sign key (payload ~log_id ~size ~root ~at) }

(* One tree head is verified many times over: by the controller accepting a
   receipt, by each gossiping auditor, and by every equivocation cross-check
   — memoized so only the first check pays the exponentiation. *)
let verify ~key t =
  Crypto.Rsa.verify_memo key ~signature:t.signature
    (payload ~log_id:t.log_id ~size:t.size ~root:t.root ~at:t.at)

let equal a b =
  String.equal a.log_id b.log_id
  && a.size = b.size
  && String.equal a.root b.root
  && a.at = b.at
  && String.equal a.signature b.signature

let encode e t =
  Wire.Codec.Enc.str e t.log_id;
  Wire.Codec.Enc.int e t.size;
  Wire.Codec.Enc.str e t.root;
  Wire.Codec.Enc.int e t.at;
  Wire.Codec.Enc.str e t.signature

let decode d =
  let log_id = Wire.Codec.Dec.str d in
  let size = Wire.Codec.Dec.int d in
  let root = Wire.Codec.Dec.str d in
  let at = Wire.Codec.Dec.int d in
  let signature = Wire.Codec.Dec.str d in
  { log_id; size; root; at; signature }

let to_string t = Wire.Codec.encode (fun e -> encode e t)
let of_string raw = Wire.Codec.decode_opt raw decode
