type t = {
  identity : Net.Secure_channel.Identity.t;
  trust : Tpm.Backend.t;
  kernel : Monitors.Monitor_kernel.t;
}

let address_of name = "att:" ^ name

let error_reply reason =
  Wire.Codec.encode (fun e ->
      Wire.Codec.Enc.u8 e 0;
      Wire.Codec.Enc.str e reason)

let ok_reply payload =
  Wire.Codec.encode (fun e ->
      Wire.Codec.Enc.u8 e 1;
      Wire.Codec.Enc.str e payload)

let ( let* ) = Result.bind

(* Collect one report's measurements through the Monitor Kernel (loading
   the Trust Evidence Registers); the same for both request shapes. *)
let collect t ~vid requests_raw =
  match Monitors.Measurement.decode_requests requests_raw with
  | None -> Error "malformed measurement list"
  | Some requests -> (
      match Monitors.Monitor_kernel.collect t.kernel ~vid requests with
      | Error (`Unknown_vm vid) -> Error ("unknown vm " ^ vid)
      | Error (`Unsupported r) ->
          Error ("unsupported measurement " ^ Monitors.Measurement.request_to_string r)
      | Ok values -> Ok (Monitors.Measurement.encode_values values))

let measure_one t (req : Protocol.measure_request) =
  let* values_raw = collect t ~vid:req.vid req.requests_raw in
  let session = Tpm.Backend.begin_session t.trust in
  let quote =
    Protocol.q3 ~vid:req.vid ~requests_raw:req.requests_raw ~values_raw ~nonce:req.nonce
  in
  let unsigned =
    {
      Protocol.vid = req.vid;
      requests_raw = req.requests_raw;
      values_raw;
      nonce = req.nonce;
      quote;
      signature = "";
      avk = Crypto.Rsa.public_to_string session.public;
      endorsement = session.endorsement;
    }
  in
  let signature =
    match
      Tpm.Backend.sign_with_session t.trust session (Protocol.measure_response_payload unsigned)
    with
    | Some s -> s
    | None -> ""
  in
  Tpm.Backend.end_session t.trust session;
  Ok (Protocol.encode_measure_response { unsigned with signature })

(* Batched measurement: collect every item, build one Merkle tree over the
   per-item Q3 quotes (each leaf hashed once; every proof comes from that
   tree), and have the Trust Module mint ONE session key and sign ONE
   root — the whole point of batching.  Any item that cannot be
   collected fails the batch (the AS retries those items unbatched), so a
   batch reply always covers exactly what was asked. *)
let measure_batch t (req : Protocol.batch_measure_request) =
  let rec collect_all acc = function
    | [] -> Ok (List.rev acc)
    | (vid, requests_raw) :: rest ->
        let* values_raw = collect t ~vid requests_raw in
        collect_all ((vid, requests_raw, values_raw) :: acc) rest
  in
  let* measured = if req.bm_items = [] then Error "empty batch" else collect_all [] req.bm_items in
  let leaves =
    List.map
      (fun (vid, requests_raw, values_raw) ->
        Protocol.q3 ~vid ~requests_raw ~values_raw ~nonce:req.bm_nonce)
      measured
  in
  let tree = Crypto.Merkle.of_leaves leaves in
  let size = Crypto.Merkle.size tree in
  let root = Crypto.Merkle.root_at tree size in
  let session = Tpm.Backend.begin_session t.trust in
  let signature =
    match Tpm.Backend.quote_batch t.trust session ~root ~nonce:req.bm_nonce with
    | Some s -> s
    | None -> ""
  in
  Tpm.Backend.end_session t.trust session;
  let items =
    List.mapi
      (fun i (bi_vid, bi_requests_raw, bi_values_raw) ->
        {
          Protocol.bi_vid;
          bi_requests_raw;
          bi_values_raw;
          bi_proof = Crypto.Merkle.inclusion tree ~size i;
        })
      measured
  in
  Ok
    (Protocol.encode_batch_measure_response
       {
         Protocol.br_items = items;
         br_nonce = req.bm_nonce;
         br_root = root;
         br_signature = signature;
         br_avk = Crypto.Rsa.public_to_string session.public;
         br_endorsement = session.endorsement;
       })

let request_handler t ~peer:_ plaintext =
  let reply =
    match Protocol.decode_batch_measure_request plaintext with
    | Some req -> measure_batch t req
    | None -> (
        match Protocol.decode_measure_request plaintext with
        | None -> Error "malformed measurement request"
        | Some req -> measure_one t req)
  in
  match reply with Ok payload -> ok_reply payload | Error why -> error_reply why

let create ~ca ~seed ?(key_bits = 1024) server =
  match Hypervisor.Server.trust_backend server with
  | None -> Error `Not_secure
  | Some trust ->
      (* The channel identity key is the Trust Module's identity keypair
         would be ideal; we give the attestation client its own CA-certified
         channel identity (as real deployments separate TLS keys from
         attestation keys) while the measurement signatures come from the
         Trust Module. *)
      let name = Hypervisor.Server.name server in
      let identity =
        Net.Secure_channel.Identity.make ca ~seed:(seed ^ "|attclient") ~bits:key_bits ~name ()
      in
      Ok { identity; trust; kernel = Monitors.Monitor_kernel.create server }

let identity t = t.identity

let measurement_cost ~backend (req : Protocol.measure_request) =
  let n =
    match Monitors.Measurement.decode_requests req.requests_raw with
    | Some rs -> List.length rs
    | None -> 1
  in
  Costs.session_keygen_for backend + Costs.quote_sign_for backend
  + (n * Costs.measurement_collect)

let batch_measurement_cost ~backend (req : Protocol.batch_measure_request) =
  let collects =
    List.fold_left
      (fun acc (_, requests_raw) ->
        acc
        +
        match Monitors.Measurement.decode_requests requests_raw with
        | Some rs -> List.length rs
        | None -> 1)
      0 req.bm_items
  in
  (* One keygen + one root signature for the whole batch; collection stays
     per measurement and the Merkle build is charged per node. *)
  Costs.batch_quote_cost_for ~batch:(List.length req.bm_items) backend
  + (collects * Costs.measurement_collect)
