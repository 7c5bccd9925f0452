(* The Trust Module (paper Fig. 2) as one device in three kinds: the classic
   hardware TPM, the migratable ephemeral vTPM (e-vTPM) and the CVM
   hardware-report device.  All three have the same identity key, DRBG,
   Trust Evidence Registers, PCR bank, session table and signing engine.
   They differ in one place, [endorse]: where a session key's endorsement
   is anchored.  Only an e-vTPM's state can leave the device. *)

type kind = Classic | Evtpm | Cvm_report

let all_kinds = [ Classic; Evtpm; Cvm_report ]

let kind_to_string = function
  | Classic -> "classic"
  | Evtpm -> "evtpm"
  | Cvm_report -> "cvm"

type t = {
  kind : kind;
  mutable identity : Crypto.Rsa.keypair; (* SKs/VKs; a CVM's fused platform key *)
  platform_cert : string; (* CVM: the vendor root's endorsement of [identity] *)
  drbg : Crypto.Drbg.t; (* device-local entropy; never part of saved state *)
  mutable registers : int array;
  pcrs : Pcr.t;
  key_bits : int;
  sessions : (string, Crypto.Rsa.keypair) Hashtbl.t; (* fingerprint -> keypair *)
  mutable epoch : int; (* e-vTPM binding epoch; 0 forever on the other kinds *)
  mutable stale : bool; (* e-vTPM: restored and not yet rebound *)
}

let seed_prefix = function
  | Classic -> "trust-module|"
  | Evtpm -> "evtpm|"
  | Cvm_report -> "cvm-device|"

(* PCRs per device. *)
let num_pcrs = 16

let create ?(key_bits = 1024) ?(num_registers = 64) ?root kind ~seed () =
  let drbg = Crypto.Drbg.create ~seed:(seed_prefix kind ^ seed) in
  let identity = Crypto.Rsa.generate drbg ~bits:key_bits in
  let platform_cert =
    match (kind, root) with
    | Cvm_report, Some root -> Platform_root.endorse_platform root identity.public
    | Cvm_report, None -> invalid_arg "Backend.create: a CVM device needs ~root"
    | (Classic | Evtpm), _ -> ""
  in
  {
    kind;
    identity;
    platform_cert;
    drbg;
    registers = Array.make num_registers 0;
    pcrs = Pcr.create ~count:num_pcrs;
    key_bits;
    sessions = Hashtbl.create 4;
    epoch = 0;
    stale = false;
  }

let classic t = t
let evtpm t = t
let cvm t = t

let kind t = t.kind
let identity_public t = t.identity.public
let pcrs t = t.pcrs
let random_nonce t = Crypto.Drbg.nonce t.drbg
let binding_epoch t = t.epoch
let stale t = t.stale

(* --- Trust Evidence Registers ---------------------------------------------- *)

let num_registers t = Array.length t.registers
let read_registers t = Array.copy t.registers

let check t i =
  if i < 0 || i >= Array.length t.registers then
    invalid_arg "Trust_module: register index out of range"

let write_register t i v =
  check t i;
  t.registers.(i) <- v

let add_register t i v =
  check t i;
  t.registers.(i) <- t.registers.(i) + v

let clear_registers t = Array.fill t.registers 0 (Array.length t.registers) 0

(* --- Session keys ----------------------------------------------------------- *)

type session = { public : Crypto.Rsa.public; endorsement : string }

let endorsement_payload pub = "attestation-key-endorsement|" ^ Crypto.Rsa.public_to_string pub

(* The epoch (and, after a restore, the stale marker) is baked into the
   bytes SKs signs, so a verifier cannot be talked into accepting a session
   key minted from un-rebound state: the endorsement itself confesses. *)
let evtpm_endorsement_payload ~epoch ~stale pub =
  Printf.sprintf "evtpm-endorsement|epoch=%d|%s%s" epoch
    (if stale then "stale|" else "")
    (Crypto.Rsa.public_to_string pub)

(* The one per-kind branch.  A CVM's "endorsement" is the full hardware
   chain, so a verifier needs nothing but the vendor root public key. *)
let endorse t pub =
  let sign payload = Crypto.Rsa.sign t.identity.secret payload in
  match t.kind with
  | Classic -> sign (endorsement_payload pub)
  | Evtpm -> sign (evtpm_endorsement_payload ~epoch:t.epoch ~stale:t.stale pub)
  | Cvm_report ->
      Platform_root.encode_chain ~platform:t.identity.public ~cert:t.platform_cert
        ~report_sig:(sign (Platform_root.report_key_payload pub))

let begin_session t =
  let kp = Crypto.Rsa.generate t.drbg ~bits:t.key_bits in
  Hashtbl.replace t.sessions (Crypto.Rsa.fingerprint kp.public) kp;
  { public = kp.public; endorsement = endorse t kp.public }

let sign_with_session t session payload =
  match Hashtbl.find_opt t.sessions (Crypto.Rsa.fingerprint session.public) with
  | None -> None
  | Some kp -> Some (Crypto.Rsa.sign kp.secret payload)

let end_session t session = Hashtbl.remove t.sessions (Crypto.Rsa.fingerprint session.public)

let batch_quote_payload ~root ~nonce = "batch-quote|" ^ root ^ "|" ^ nonce

let quote_batch t session ~root ~nonce =
  sign_with_session t session (batch_quote_payload ~root ~nonce)

(* --- Identity-key operations ----------------------------------------------- *)

let sign_identity t msg = Crypto.Rsa.sign t.identity.secret msg
let decrypt_identity t cipher = Crypto.Rsa.decrypt t.identity.secret cipher

(* --- e-vTPM state ----------------------------------------------------------- *)

let movable t =
  if t.kind = Evtpm then Ok () else Error (kind_to_string t.kind ^ " state is sealed in the device")

let state_magic = "cm-evtpm-state/1"

(* The saved image carries the identity secret as a plain (n, e, d) triple;
   a reconstituted secret loses its CRT acceleration but produces the same
   bytes (see Crypto.Rsa).  The stale flag is NOT part of the state: it is
   the act of restoring, not the bytes restored, that demands a rebind. *)
let save_state t =
  Result.map
    (fun () ->
      Wire.Codec.encode (fun e ->
          Wire.Codec.Enc.str e state_magic;
          Wire.Codec.Enc.int e t.epoch;
          Wire.Codec.Enc.int e t.key_bits;
          Wire.Codec.Enc.str e (Crypto.Rsa.public_to_string t.identity.public);
          Wire.Codec.Enc.str e (Crypto.Bignum.to_hex t.identity.secret.d);
          Wire.Codec.Enc.list e (Wire.Codec.Enc.int e) (Array.to_list t.registers);
          Wire.Codec.Enc.list e (Wire.Codec.Enc.str e) (Array.to_list (Pcr.snapshot t.pcrs))))
    (movable t)

let decode_state blob =
  Wire.Codec.decode_opt blob (fun d ->
      if not (String.equal (Wire.Codec.Dec.str d) state_magic) then
        raise (Wire.Codec.Error "not an evtpm state image");
      let epoch = Wire.Codec.Dec.int d in
      let key_bits = Wire.Codec.Dec.int d in
      let pub = Wire.Codec.Dec.str d in
      let d_hex = Wire.Codec.Dec.str d in
      let registers = Wire.Codec.Dec.list d Wire.Codec.Dec.int in
      let pcrs = Wire.Codec.Dec.list d Wire.Codec.Dec.str in
      (epoch, key_bits, pub, d_hex, Array.of_list registers, Array.of_list pcrs))

(* The identity secret must parse and must sign for the image's public key
   (one sign and one verify), so a doctored image cannot leave a device
   whose signatures nothing verifies. *)
let identity_of ~pub ~d_hex =
  let probe = "evtpm-restore-probe" in
  match
    let secret = { Crypto.Rsa.pub; d = Crypto.Bignum.of_hex d_hex; crt = None } in
    (secret, Crypto.Rsa.sign secret probe)
  with
  | secret, signature when Crypto.Rsa.verify pub ~signature probe ->
      Ok { Crypto.Rsa.public = pub; secret }
  | _ | (exception Invalid_argument _) ->
      Error "evtpm state image: identity secret does not sign for its public key"

(* Every field is parsed and checked before any device state changes. *)
let restore_state t blob =
  let ( let* ) = Result.bind in
  let* () = movable t in
  let* epoch, key_bits, pub, d_hex, registers, pcrs =
    Option.to_result ~none:"malformed evtpm state image" (decode_state blob)
  in
  let* pub =
    Option.to_result ~none:"evtpm state image: bad identity key" (Crypto.Rsa.public_of_string pub)
  in
  let* () =
    if key_bits <> t.key_bits then
      Error
        (Printf.sprintf "evtpm state image: key size %d does not fit device (%d)" key_bits
           t.key_bits)
    else if Array.length registers <> Array.length t.registers then
      Error "evtpm state image: register bank size mismatch"
    else Ok ()
  in
  let* identity = identity_of ~pub ~d_hex in
  (* [Pcr.load] checks the snapshot before it touches the bank. *)
  let* () = Pcr.load t.pcrs pcrs in
  t.identity <- identity;
  t.registers <- registers;
  t.epoch <- epoch;
  (* Session secrets never survive a migration. *)
  Hashtbl.reset t.sessions;
  t.stale <- true;
  Ok ()

let rebind t =
  (match movable t with Ok () -> () | Error why -> invalid_arg ("Backend.rebind: " ^ why));
  t.epoch <- t.epoch + 1;
  t.stale <- false;
  t.epoch
