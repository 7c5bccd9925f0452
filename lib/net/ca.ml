type cert = { subject : string; pubkey : Crypto.Rsa.public; signature : string }

type t = { keypair : Crypto.Rsa.keypair }

let create ~seed ?(bits = 1024) ~name () =
  let drbg = Crypto.Drbg.create ~seed:("ca|" ^ name ^ "|" ^ seed) in
  { keypair = Crypto.Rsa.generate drbg ~bits }

let public t = t.keypair.public

let payload ~subject pubkey =
  Printf.sprintf "certificate|%s|%s" subject (Crypto.Rsa.public_to_string pubkey)

let issue t ~subject pubkey =
  { subject; pubkey; signature = Crypto.Rsa.sign t.keypair.secret (payload ~subject pubkey) }

(* Certificates are long-lived and re-checked on every handshake and every
   report appraisal, so this goes through the verification memo: the first
   check pays the exponentiation, every later check of the same cert is a
   hash lookup. *)
let verify ~ca cert =
  Crypto.Rsa.verify_memo ca ~signature:cert.signature (payload ~subject:cert.subject cert.pubkey)

let encode e cert =
  Wire.Codec.Enc.str e cert.subject;
  Wire.Codec.Enc.str e (Crypto.Rsa.public_to_string cert.pubkey);
  Wire.Codec.Enc.str e cert.signature

let decode d =
  let subject = Wire.Codec.Dec.str d in
  let pub_s = Wire.Codec.Dec.str d in
  let signature = Wire.Codec.Dec.str d in
  match Crypto.Rsa.public_of_string pub_s with
  | None -> raise (Wire.Codec.Error "bad public key in certificate")
  | Some pubkey -> { subject; pubkey; signature }
