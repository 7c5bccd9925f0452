module Codec = Wire.Codec

type error =
  [ `Auth_failure | `Replay | `Malformed | `Transport of string | `Rejected of string ]

let pp_error ppf = function
  | `Auth_failure -> Format.pp_print_string ppf "authentication failure"
  | `Replay -> Format.pp_print_string ppf "replay detected"
  | `Malformed -> Format.pp_print_string ppf "malformed message"
  | `Transport e -> Format.fprintf ppf "transport error: %s" e
  | `Rejected r -> Format.fprintf ppf "handshake rejected: %s" r

(* Server-side refusal reasons that a reset (fresh handshake) may cure, as
   opposed to policy refusals that will repeat identically. *)
let reason_seq_violation = "sequence violation"
let reason_unknown_session = "unknown session"

let desync = function
  | `Replay -> true
  | `Rejected r ->
      String.equal r reason_seq_violation || String.equal r reason_unknown_session
  | `Auth_failure | `Malformed | `Transport _ -> false

let transient = function
  | `Transport _ | `Replay | `Auth_failure | `Malformed -> true
  | `Rejected r ->
      String.equal r reason_seq_violation
      || String.equal r reason_unknown_session
      || String.equal r "record authentication failed"
      || (String.length r >= 9 && String.equal (String.sub r 0 9) "malformed")

module Identity = struct
  type t = { name : string; keypair : Crypto.Rsa.keypair; cert : Ca.cert }

  let make ca ~seed ?(bits = 1024) ~name () =
    let drbg = Crypto.Drbg.create ~seed:(Printf.sprintf "identity|%s|%s" name seed) in
    let keypair = Crypto.Rsa.generate drbg ~bits in
    { name; keypair; cert = Ca.issue ca ~subject:name keypair.public }
end

(* Message tags on the wire. *)
let tag_hello = 1
let tag_hello_reply = 2
let tag_key_exchange = 3
let tag_key_confirm = 4
let tag_record = 5
let tag_record_reply = 6
let tag_error = 255

let random_size = 32
let premaster_size = 32

(* Transcript-bound payloads that the identity keys sign. *)
let server_auth_payload ~client_random ~server_random ~client_name ~server_name =
  Printf.sprintf "hs-server|%s|%s|%s|%s" client_random server_random client_name server_name

let client_auth_payload ~client_random ~server_random ~enc_premaster =
  Printf.sprintf "hs-client|%s|%s|%s" client_random server_random enc_premaster

(* Key schedule: master secret -> four directional keys. *)
type keys = { c2s_enc : string; c2s_mac : string; s2c_enc : string; s2c_mac : string }

let derive_keys ~premaster ~client_random ~server_random =
  let master = Crypto.Hmac.mac ~key:premaster (client_random ^ server_random) in
  {
    c2s_enc = Crypto.Hmac.derive ~secret:master ~label:"c2s-enc" 32;
    c2s_mac = Crypto.Hmac.derive ~secret:master ~label:"c2s-mac" 32;
    s2c_enc = Crypto.Hmac.derive ~secret:master ~label:"s2c-enc" 32;
    s2c_mac = Crypto.Hmac.derive ~secret:master ~label:"s2c-mac" 32;
  }

let confirm_payload ~keys:k ~server_random =
  Crypto.Hmac.mac ~key:k.c2s_mac ("server-finished|" ^ server_random)

(* Records: seq-numbered ChaCha20 + HMAC, encrypt-then-MAC. *)
let seq_nonce seq =
  Codec.encode (fun e ->
      Codec.Enc.u32 e 0;
      Codec.Enc.int e seq)

let seal ~enc_key ~mac_key ~seq plaintext =
  let cipher = Crypto.Chacha20.xor ~key:enc_key ~nonce:(seq_nonce seq) plaintext in
  let tag =
    Crypto.Hmac.mac ~key:mac_key
      (Codec.encode (fun e ->
           Codec.Enc.int e seq;
           Codec.Enc.str e cipher))
  in
  (cipher, tag)

let unseal ~enc_key ~mac_key ~seq ~cipher ~tag =
  let authed =
    Codec.encode (fun e ->
        Codec.Enc.int e seq;
        Codec.Enc.str e cipher)
  in
  if not (Crypto.Hmac.verify ~key:mac_key ~tag authed) then Error `Auth_failure
  else Ok (Crypto.Chacha20.xor ~key:enc_key ~nonce:(seq_nonce seq) cipher)

let error_reply reason =
  Codec.encode (fun e ->
      Codec.Enc.u8 e tag_error;
      Codec.Enc.str e reason)

module Server = struct
  type session = {
    peer : string;
    keys : keys;
    confirm_reply : string;
        (** the key-confirm message, re-sent verbatim when a retried key
            exchange arrives for an already-established session *)
    mutable next_c2s : int;  (** next sequence number expected from client *)
    mutable next_s2c : int;
    mutable last_record : (int * string * string) option;
        (** (seq, digest of the raw record, encoded reply) of the most
            recent data record — a retransmission of exactly that record is
            answered from this cache instead of being re-executed *)
  }

  type pending = { p_client_random : string; p_server_random : string; p_client_cert : Ca.cert }

  type t = {
    identity : Identity.t;
    ca : Crypto.Rsa.public;
    drbg : Crypto.Drbg.t;
    pending : (string, pending) Hashtbl.t;  (** keyed by session id *)
    established : (string, session) Hashtbl.t;
    accept : string -> bool;
    on_request : peer:string -> string -> string;
  }

  let create ~identity ~ca ~seed ~accept ~on_request =
    {
      identity;
      ca;
      drbg = Crypto.Drbg.create ~seed:(Printf.sprintf "server|%s|%s" identity.Identity.name seed);
      pending = Hashtbl.create 8;
      established = Hashtbl.create 8;
      accept;
      on_request;
    }

  let sessions t = Hashtbl.length t.established

  let handle_hello t d =
    let client_name = Codec.Dec.str d in
    let client_random = Codec.Dec.raw d random_size in
    let client_cert = Ca.decode d in
    Codec.Dec.expect_end d;
    if not (Ca.verify ~ca:t.ca client_cert) then error_reply "bad client certificate"
    else if not (String.equal client_cert.subject client_name) then
      error_reply "certificate subject mismatch"
    else if not (t.accept client_name) then error_reply "peer not allowed"
    else begin
      let server_random = Crypto.Drbg.random_bytes t.drbg random_size in
      let session_id = Crypto.Hexs.encode server_random in
      Hashtbl.replace t.pending session_id
        { p_client_random = client_random; p_server_random = server_random; p_client_cert = client_cert };
      let auth =
        Crypto.Rsa.sign t.identity.keypair.secret
          (server_auth_payload ~client_random ~server_random ~client_name
             ~server_name:t.identity.name)
      in
      Codec.encode (fun e ->
          Codec.Enc.u8 e tag_hello_reply;
          Codec.Enc.str e session_id;
          Codec.Enc.raw e server_random;
          Ca.encode e t.identity.cert;
          Codec.Enc.str e auth)
    end

  let handle_key_exchange t d =
    let session_id = Codec.Dec.str d in
    let enc_premaster = Codec.Dec.str d in
    let client_sig = Codec.Dec.str d in
    Codec.Dec.expect_end d;
    match Hashtbl.find_opt t.pending session_id with
    | None -> (
        (* A retried key exchange whose confirm was lost on the wire: the
           session is already up, so resend the (public) confirm verbatim
           rather than failing the client's handshake. *)
        match Hashtbl.find_opt t.established session_id with
        | Some s -> s.confirm_reply
        | None -> error_reply reason_unknown_session)
    | Some p ->
        let payload =
          client_auth_payload ~client_random:p.p_client_random
            ~server_random:p.p_server_random ~enc_premaster
        in
        (* Memoized: a retried key exchange re-sends the identical signed
           transcript, so the retry skips the exponentiation. *)
        if not (Crypto.Rsa.verify_memo p.p_client_cert.pubkey ~signature:client_sig payload)
        then error_reply "bad client signature"
        else begin
          match Crypto.Rsa.decrypt t.identity.keypair.secret enc_premaster with
          | None -> error_reply "premaster decryption failed"
          | Some premaster ->
              let keys =
                derive_keys ~premaster ~client_random:p.p_client_random
                  ~server_random:p.p_server_random
              in
              Hashtbl.remove t.pending session_id;
              let confirm_reply =
                Codec.encode (fun e ->
                    Codec.Enc.u8 e tag_key_confirm;
                    Codec.Enc.str e (confirm_payload ~keys ~server_random:p.p_server_random))
              in
              Hashtbl.replace t.established session_id
                {
                  peer = p.p_client_cert.subject;
                  keys;
                  confirm_reply;
                  next_c2s = 0;
                  next_s2c = 0;
                  last_record = None;
                };
              confirm_reply
        end

  let record_digest raw = Crypto.Sha256.digest raw

  let handle_record t raw d =
    let session_id = Codec.Dec.str d in
    let seq = Codec.Dec.int d in
    let cipher = Codec.Dec.str d in
    let tag = Codec.Dec.raw d 32 in
    Codec.Dec.expect_end d;
    match Hashtbl.find_opt t.established session_id with
    | None -> error_reply reason_unknown_session
    | Some s -> (
        match s.last_record with
        | Some (last_seq, last_digest, cached_reply)
          when seq = last_seq && String.equal (record_digest raw) last_digest ->
            (* Bit-for-bit retransmission of the record we just answered:
               the reply was lost, not the request.  Serve the cached reply
               without re-executing the request (idempotent delivery). *)
            cached_reply
        | _ ->
            if seq <> s.next_c2s then error_reply reason_seq_violation
            else begin
              match unseal ~enc_key:s.keys.c2s_enc ~mac_key:s.keys.c2s_mac ~seq ~cipher ~tag with
              | Error _ -> error_reply "record authentication failed"
              | Ok plaintext ->
                  s.next_c2s <- s.next_c2s + 1;
                  let reply = t.on_request ~peer:s.peer plaintext in
                  let rseq = s.next_s2c in
                  s.next_s2c <- rseq + 1;
                  let rcipher, rtag =
                    seal ~enc_key:s.keys.s2c_enc ~mac_key:s.keys.s2c_mac ~seq:rseq reply
                  in
                  let encoded =
                    Codec.encode (fun e ->
                        Codec.Enc.u8 e tag_record_reply;
                        Codec.Enc.int e rseq;
                        Codec.Enc.str e rcipher;
                        Codec.Enc.raw e rtag)
                  in
                  s.last_record <- Some (seq, record_digest raw, encoded);
                  encoded
            end)

  let handle t raw =
    match
      (try
         let d = Codec.Dec.of_string raw in
         let tag = Codec.Dec.u8 d in
         Ok (tag, d)
       with Codec.Error e -> Error e)
    with
    | Error e -> error_reply ("malformed: " ^ e)
    | Ok (tag, d) -> (
        try
          if tag = tag_hello then handle_hello t d
          else if tag = tag_key_exchange then handle_key_exchange t d
          else if tag = tag_record then handle_record t raw d
          else error_reply "unexpected message tag"
        with Codec.Error e -> error_reply ("malformed: " ^ e))
end

module Client = struct
  type session = {
    session_id : string;
    keys : keys;
    mutable next_c2s : int;
    mutable next_s2c : int;
  }

  type t = {
    identity : Identity.t;
    ca : Crypto.Rsa.public;
    drbg : Crypto.Drbg.t;
    peer_name : string;
    transport : string -> (string, string) result;
    mutable peer_key : Crypto.Rsa.public option;  (** [Some] once a handshake completed *)
    mutable session : session option;
    mutable handshakes : int;  (** completed handshakes (resyncs = handshakes - 1) *)
  }

  let peer t = t.peer_name

  let peer_key t =
    match t.peer_key with
    | Some k -> k
    | None -> invalid_arg "Secure_channel.Client.peer_key: no completed handshake"

  let handshakes t = t.handshakes

  let parse_reply raw expected_tag =
    try
      let d = Codec.Dec.of_string raw in
      let tag = Codec.Dec.u8 d in
      if tag = tag_error then Error (`Rejected (Codec.Dec.str d))
      else if tag <> expected_tag then Error `Malformed
      else Ok d
    with Codec.Error _ -> Error `Malformed

  (* One full handshake.  Fresh randoms come from the client's DRBG, which
     advances across resets, so a re-handshake never reuses a premaster. *)
  let handshake t =
    let client_random = Crypto.Drbg.random_bytes t.drbg random_size in
    let hello =
      Codec.encode (fun e ->
          Codec.Enc.u8 e tag_hello;
          Codec.Enc.str e t.identity.Identity.name;
          Codec.Enc.raw e client_random;
          Ca.encode e t.identity.Identity.cert)
    in
    match t.transport hello with
    | Error e -> Error (`Transport e)
    | Ok raw -> (
        match parse_reply raw tag_hello_reply with
        | Error e -> Error e
        | Ok d -> (
            try
              let session_id = Codec.Dec.str d in
              let server_random = Codec.Dec.raw d random_size in
              let server_cert = Ca.decode d in
              let auth = Codec.Dec.str d in
              Codec.Dec.expect_end d;
              if not (Ca.verify ~ca:t.ca server_cert) then Error `Auth_failure
              else if not (String.equal server_cert.subject t.peer_name) then Error `Auth_failure
              else if
                not
                  (Crypto.Rsa.verify_memo server_cert.pubkey ~signature:auth
                     (server_auth_payload ~client_random ~server_random
                        ~client_name:t.identity.Identity.name ~server_name:t.peer_name))
              then Error `Auth_failure
              else begin
                let premaster = Crypto.Drbg.random_bytes t.drbg premaster_size in
                let enc_premaster = Crypto.Rsa.encrypt t.drbg server_cert.pubkey premaster in
                let client_sig =
                  Crypto.Rsa.sign t.identity.Identity.keypair.secret
                    (client_auth_payload ~client_random ~server_random ~enc_premaster)
                in
                let kx =
                  Codec.encode (fun e ->
                      Codec.Enc.u8 e tag_key_exchange;
                      Codec.Enc.str e session_id;
                      Codec.Enc.str e enc_premaster;
                      Codec.Enc.str e client_sig)
                in
                match t.transport kx with
                | Error e -> Error (`Transport e)
                | Ok raw -> (
                    match parse_reply raw tag_key_confirm with
                    | Error e -> Error e
                    | Ok d ->
                        let confirm = Codec.Dec.str d in
                        Codec.Dec.expect_end d;
                        let keys = derive_keys ~premaster ~client_random ~server_random in
                        if not (String.equal confirm (confirm_payload ~keys ~server_random))
                        then Error `Auth_failure
                        else begin
                          t.peer_key <- Some server_cert.pubkey;
                          t.session <- Some { session_id; keys; next_c2s = 0; next_s2c = 0 };
                          t.handshakes <- t.handshakes + 1;
                          Ok ()
                        end)
              end
            with Codec.Error _ -> Error `Malformed))

  let connect ~identity ~ca ~seed ~peer ~transport =
    let t =
      {
        identity;
        ca;
        drbg =
          Crypto.Drbg.create ~seed:(Printf.sprintf "client|%s|%s" identity.Identity.name seed);
        peer_name = peer;
        transport;
        peer_key = None;
        session = None;
        handshakes = 0;
      }
    in
    match handshake t with Ok () -> Ok t | Error e -> Error e

  let reset t =
    t.session <- None;
    handshake t

  let call t plaintext =
    match t.session with
    | None -> Error (`Transport "no session (reset failed?)")
    | Some s -> (
        let seq = s.next_c2s in
        let cipher, tag = seal ~enc_key:s.keys.c2s_enc ~mac_key:s.keys.c2s_mac ~seq plaintext in
        let record =
          Codec.encode (fun e ->
              Codec.Enc.u8 e tag_record;
              Codec.Enc.str e s.session_id;
              Codec.Enc.int e seq;
              Codec.Enc.str e cipher;
              Codec.Enc.raw e tag)
        in
        match t.transport record with
        | Error e -> Error (`Transport e)
        | Ok raw -> (
            match parse_reply raw tag_record_reply with
            | Error e -> Error e
            | Ok d -> (
                try
                  let rseq = Codec.Dec.int d in
                  let rcipher = Codec.Dec.str d in
                  let rtag = Codec.Dec.raw d 32 in
                  Codec.Dec.expect_end d;
                  if rseq <> s.next_s2c then Error `Replay
                  else begin
                    match
                      unseal ~enc_key:s.keys.s2c_enc ~mac_key:s.keys.s2c_mac ~seq:rseq
                        ~cipher:rcipher ~tag:rtag
                    with
                    | Error e -> Error e
                    | Ok reply ->
                        s.next_c2s <- seq + 1;
                        s.next_s2c <- rseq + 1;
                        Ok reply
                  end
                with Codec.Error _ -> Error `Malformed)))

  let call_robust ?(attempts = 3) t plaintext =
    let attempts = max 1 attempts in
    let rec go n =
      match call t plaintext with
      | Ok reply -> Ok reply
      | Error e when n <= 1 -> Error e
      | Error e when desync e -> (
          (* The two ends disagree on sequence state (a reply was lost, a
             request replayed, or the server forgot the session): the only
             cure is a fresh handshake, then re-sending the request. *)
          match reset t with
          | Ok () -> go (n - 1)
          | Error re -> if transient re then go (n - 1) else Error re)
      | Error e when transient e ->
          (* Same record again: identical bytes, so a server that already
             consumed this seq answers from its reply cache. *)
          go (n - 1)
      | Error e -> Error e
    in
    go attempts
end
