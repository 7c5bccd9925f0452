(* Hardware vendor root of trust for CVM-style attestation (the SoK-on-CVM
   threat model): the platform — not the cloud operator — signs reports.
   The vendor root endorses each machine's fused platform key once, at
   "manufacture" time; per-session report keys are endorsed by the platform
   key.  A verifier holding only the vendor root public key can check the
   whole chain, keeping the operator (and its Privacy CA) outside the TCB. *)

type t = Crypto.Rsa.keypair

let create ?(bits = 1024) ~seed () =
  Crypto.Rsa.generate (Crypto.Drbg.create ~seed:("platform-root|" ^ seed)) ~bits

let public (t : t) = t.public

let platform_key_payload pub = "cvm-platform-key|" ^ Crypto.Rsa.public_to_string pub
let report_key_payload pub = "cvm-report-key|" ^ Crypto.Rsa.public_to_string pub

let endorse_platform (t : t) pub = Crypto.Rsa.sign t.secret (platform_key_payload pub)

(* --- The endorsement chain carried on the wire ---------------------------- *)

(* One string, riding in the measure-response [endorsement] field:
   (platform public key, vendor-root cert over it, platform signature over
   the session report key). *)
let chain_magic = "cm-cvm-chain/1"

let encode_chain ~platform ~cert ~report_sig =
  Wire.Codec.encode (fun e ->
      Wire.Codec.Enc.str e chain_magic;
      Wire.Codec.Enc.str e (Crypto.Rsa.public_to_string platform);
      Wire.Codec.Enc.str e cert;
      Wire.Codec.Enc.str e report_sig)

let decode_chain s =
  match
    Wire.Codec.decode_opt s (fun d ->
        let magic = Wire.Codec.Dec.str d in
        if not (String.equal magic chain_magic) then
          raise (Wire.Codec.Error "not a cvm endorsement chain");
        let platform_s = Wire.Codec.Dec.str d in
        let cert = Wire.Codec.Dec.str d in
        let report_sig = Wire.Codec.Dec.str d in
        (platform_s, cert, report_sig))
  with
  | None -> None
  | Some (platform_s, cert, report_sig) -> (
      match Crypto.Rsa.public_of_string platform_s with
      | None -> None
      | Some platform -> Some (platform, cert, report_sig))

let verify_chain ~root ~endorsement ~key =
  match decode_chain endorsement with
  | None -> false
  | Some (platform, cert, report_sig) ->
      Crypto.Rsa.verify_memo root ~signature:cert (platform_key_payload platform)
      && Crypto.Rsa.verify_memo platform ~signature:report_sig (report_key_payload key)
