type error =
  [ `Channel of Net.Secure_channel.error
  | `Server_refused of string
  | `Verification of Protocol.verify_error
  | `Uncertified_key
  | `No_platform_root ]

let pp_error ppf = function
  | `Channel e -> Format.fprintf ppf "channel error: %a" Net.Secure_channel.pp_error e
  | `Server_refused why -> Format.fprintf ppf "server refused: %s" why
  | `Verification e -> Format.fprintf ppf "verification failed: %a" Protocol.pp_verify_error e
  | `Uncertified_key -> Format.pp_print_string ppf "privacy CA would not certify the session key"
  | `No_platform_root ->
      Format.pp_print_string ppf "no hardware vendor root configured for CVM verification"

type history_entry = {
  at : Sim.Time.t;
  vid : string;
  property : Property.t;
  status : Report.status;
}

type t = {
  name : string;
  pca : Privacy_ca.t;
  identity : Net.Secure_channel.Identity.t;
  drbg : Crypto.Drbg.t;
  refs : Interpret.refs;
  clock : unit -> Sim.Time.t;  (* reports carry their production time *)
  vm_image : string -> string option;  (* Vid -> image name *)
  backend_of : string -> Tpm.Backend.kind;  (* server name -> trust backend *)
  platform_root : Crypto.Rsa.public option;  (* vendor root for [Cvm_report] servers *)
  hop : Hop.t;  (* cached channels to the cloud servers' attestation clients *)
  mutable history : history_entry list; (* newest first *)
  mutable count : int;
  mutable degraded : int;
  (* Verdict transparency log (lib/audit), opt-in.  When present, every
     signed verdict is appended and its inclusion receipt rides the service
     reply as a trailing block; when absent the reply bytes are exactly the
     pre-audit format. *)
  mutable audit : Audit.Log.t option;
  mutable receipts : Audit.Receipt.t list; (* this call's receipts, newest first *)
}

let create ~net ~ca ~pca ~refs ~seed ?(key_bits = 1024) ?(name = "attestation-server") ~clock
    ~vm_image ~backend_of ?platform_root () =
  let identity =
    Net.Secure_channel.Identity.make ca ~seed:(seed ^ "|as") ~bits:key_bits ~name ()
  in
  {
    name;
    pca;
    identity;
    drbg = Crypto.Drbg.create ~seed:(seed ^ "|as-drbg");
    refs;
    clock;
    vm_image;
    backend_of;
    platform_root;
    hop =
      Hop.create ~net ~identity ~ca:(Net.Ca.public ca)
        ~seed:(fun server -> name ^ "->" ^ server)
        ~address:Attestation_client.address_of;
    history = [];
    count = 0;
    degraded = 0;
    audit = None;
    receipts = [];
  }

let name t = t.name
let identity t = t.identity
let public_key t = t.identity.Net.Secure_channel.Identity.keypair.public
let refs t = t.refs

let enable_audit t =
  match t.audit with
  | Some log -> log
  | None ->
      let log =
        Audit.Log.create ~log_id:t.name
          ~key:t.identity.Net.Secure_channel.Identity.keypair.secret
          ~clock:t.clock
          ()
      in
      t.audit <- Some log;
      log

let parse_client_reply raw =
  match
    Wire.Codec.decode_opt raw (fun d ->
        let tag = Wire.Codec.Dec.u8 d in
        let body = Wire.Codec.Dec.str d in
        (tag, body))
  with
  | Some (1, body) -> Ok body
  | Some (0, reason) -> Error (`Server_refused reason)
  | Some _ | None -> Error (`Server_refused "malformed reply")

let ( let* ) = Result.bind

let record t vid property status =
  t.count <- t.count + 1;
  t.history <- { at = t.clock (); vid; property; status } :: t.history

(* Produce the signed AS report for [report], recording it in the history.
   With auditing on, the serialized signed report is also appended to the
   transparency log and its inclusion receipt queued for the reply. *)
let sign_report t ~vid ~server ~property ~nonce ~ledger report =
  record t vid property report.Report.status;
  Ledger.add ledger "report-sign" Costs.report_sign;
  let quote = Protocol.q2 ~vid ~server ~property ~report ~nonce in
  let unsigned = { Protocol.vid; server; property; report; nonce; quote; signature = "" } in
  let signature =
    Crypto.Rsa.sign t.identity.Net.Secure_channel.Identity.keypair.secret
      (Protocol.as_report_payload unsigned)
  in
  let signed = { unsigned with Protocol.signature } in
  (match t.audit with
  | None -> ()
  | Some log ->
      let size = Audit.Log.size log + 1 in
      Ledger.add ledger "audit-append" (Costs.audit_append ~size);
      Ledger.add ledger "audit-sth-sign" Costs.sth_sign;
      Ledger.add ledger "audit-proof" (Costs.audit_proof ~size);
      let receipt = Audit.Log.append_with_receipt log (Protocol.encode_as_report signed) in
      t.receipts <- receipt :: t.receipts);
  signed

let stale_binding_report t vid property =
  {
    Report.vid;
    property;
    status = Report.Compromised "vtpm-stale-binding: restored vTPM state was not re-registered";
    evidence = "session-key endorsement carries a stale or outdated binding epoch";
    produced_at = t.clock ();
  }

let interpret t ledger vid property values_raw =
  Ledger.add ledger "interpret" Costs.interpret;
  let values = Option.value ~default:[] (Monitors.Measurement.decode_values values_raw) in
  let status, evidence =
    Interpret.interpret t.refs ~image_name:(t.vm_image vid) property values
  in
  { Report.vid; property; status; evidence; produced_at = t.clock () }

let verified check = Result.map_error (fun e -> `Verification e) check

(* The trust gate, per backend and the same for both reply shapes: classic
   and vTPM session keys are certified by the Privacy CA (the vTPM registry
   additionally enforcing the binding epoch), CVM keys chain to the
   hardware vendor root.  [envelope] is the shape's check against that
   anchor, charged [verify_cost].  A known-but-stale vTPM binding is not an
   availability failure — it is the finding: the caller turns it into a
   signed, audited [Compromised] verdict. *)
let trust_gate t ~backend ~n3 ~verify_cost ~envelope (s : Protocol.session) ledger =
  let anchored anchor =
    Ledger.add ledger "verify" verify_cost;
    let* () = verified (envelope anchor) in
    Ok `Verified
  in
  match backend with
  | Tpm.Backend.Cvm_report -> (
      match t.platform_root with
      | None -> Error `No_platform_root
      | Some root ->
          Ledger.add ledger "cvm-chain-verify" Costs.cvm_chain_verify;
          anchored (Protocol.Vendor_root root))
  | Tpm.Backend.Classic | Tpm.Backend.Evtpm -> (
      Ledger.add ledger "pca-certify" Costs.pca_certify;
      match Crypto.Rsa.public_of_string s.Protocol.s_avk with
      | None -> Error `Uncertified_key
      | Some key -> (
          let endorsement = s.Protocol.s_endorsement in
          let certified =
            if backend = Tpm.Backend.Evtpm then
              Privacy_ca.certify_evtpm_key t.pca ~key ~endorsement
            else
              (Privacy_ca.certify_attestation_key t.pca ~key ~endorsement
                :> (Net.Ca.cert, [ `Unknown_server | `Stale_binding ]) result)
          in
          match certified with
          | Ok cert -> anchored (Protocol.Privacy_ca (Privacy_ca.public t.pca, cert))
          | Error `Unknown_server -> Error `Uncertified_key
          | Error `Stale_binding ->
              Ledger.add ledger "verify" Costs.signature_verify;
              let* () = verified (Protocol.verify_stale_session ~avk:key ~expected_nonce:n3 s) in
              Ok `Stale_binding))

(* One measurement round against the cloud server, in either shape: one
   channel call under a fresh N3, one decode, one trust gate.  [request]
   builds the shape's message and its server-side cost (key generation,
   collection, signing); [decode] parses the reply; [session] and
   [envelope] feed the gate. *)
let measure t ~server ~request ~decode ~session ~verify_cost ~envelope ledger =
  let backend = t.backend_of server in
  let* n3, raw =
    Result.map_error
      (fun e -> `Channel (Hop.cause e))
      (Hop.call t.hop ~peer:server ledger (fun () ->
           let n3 = Crypto.Drbg.nonce t.drbg in
           let cost, msg = request ~backend n3 in
           Ledger.add ledger "server-measure" cost;
           (n3, msg)))
  in
  let* body = parse_client_reply raw in
  let* response = decode body in
  let* gate =
    trust_gate t ~backend ~n3 ~verify_cost ~envelope:(envelope ~n3 response) (session response)
      ledger
  in
  Ok (n3, response, gate)

(* One appraisal, either shape: [round] measures the (vid, property) items
   and returns each item's report or rejection, in item order; every report
   is then signed individually.  Bounded re-attestation: a round lost to
   the network is retried from scratch (fresh channel, fresh N3); when
   every attempt is exhausted each verdict degrades to [Unknown] instead of
   wedging the pipeline — the availability loss itself is the finding the
   customer must see. *)
let appraise t ~server ~items ~nonce round =
  let ledger = Ledger.create () in
  t.receipts <- [];
  Ledger.add ledger "db-lookup" Costs.db_lookup;
  let degrade e =
    t.degraded <- t.degraded + List.length items;
    let reason =
      Format.asprintf "attestation path unavailable after %d attempts: %a" Hop.attempts
        pp_error e
    in
    List.map
      (fun (vid, property) ->
        let status = Report.Unknown reason and produced_at = t.clock () in
        Ok { Report.vid; property; status; evidence = "no measurements collected"; produced_at })
      items
  in
  let degradable = function `Channel e -> Hop.unavailable e | _ -> false in
  let sign (vid, property) itemwise =
    (vid, property, Result.map (sign_report t ~vid ~server ~property ~nonce ~ledger) itemwise)
  in
  ( Result.map (List.map2 sign items)
      (Hop.retry ~degradable ~degrade (fun () -> round ledger)),
    ledger )

let requests_raw t property =
  Monitors.Measurement.encode_requests (Interpret.requests_for t.refs property)

let attest t ~vid ~server ~property ~nonce =
  let requests_raw = requests_raw t property in
  let round ledger =
    let* _, response, gate =
      measure t ~server ledger
        ~request:(fun ~backend n3 ->
          let req = { Protocol.vid; requests_raw; nonce = n3 } in
          (Attestation_client.measurement_cost ~backend req, Protocol.encode_measure_request req))
        ~decode:(fun body ->
          Option.to_result ~none:(`Server_refused "malformed measurement response")
            (Protocol.decode_measure_response body))
        ~session:Protocol.measure_session ~verify_cost:Costs.signature_verify
        ~envelope:(fun ~n3 response anchor ->
          Protocol.verify_measure_response ~anchor ~expected_vid:vid
            ~expected_requests:requests_raw ~expected_nonce:n3 response)
    in
    let report =
      match gate with
      | `Stale_binding -> stale_binding_report t vid property
      | `Verified -> interpret t ledger vid property response.Protocol.values_raw
    in
    Ok [ Ok report ]
  in
  let result, ledger = appraise t ~server ~items:[ (vid, property) ] ~nonce round in
  (Result.bind result (fun signed -> let _, _, report = List.hd signed in report), ledger)

(* One measurement round for a whole batch: one channel call, one trust
   gate (one certification, one signature verification); then per report
   an inclusion-proof walk, interpretation, and an individually signed
   verdict.  A report whose proof fails is rejected alone — the rest of the
   batch stands, because each verdict is bound to its own Q3 leaf under the
   signed root, never to its neighbours.  A stale vTPM binding taints the
   whole batch: every item came from the same restored module, so every
   verdict is [Compromised]. *)
let attest_batch t ~server ~items ~nonce =
  let reqs = List.map (fun (vid, property) -> (vid, property, requests_raw t property)) items in
  let round ledger =
    let* n3, response, gate =
      measure t ~server ledger
        ~request:(fun ~backend n3 ->
          let bm =
            {
              Protocol.bm_items =
                List.map (fun (vid, _, requests_raw) -> (vid, requests_raw)) reqs;
              bm_nonce = n3;
            }
          in
          ( Attestation_client.batch_measurement_cost ~backend bm,
            Protocol.encode_batch_measure_request bm ))
        ~decode:(fun body ->
          match Protocol.decode_batch_measure_response body with
          | None -> Error (`Server_refused "malformed batch measurement response")
          | Some r when List.length r.Protocol.br_items <> List.length reqs ->
              Error (`Server_refused "batch reply does not match request")
          | Some r -> Ok r)
        ~session:Protocol.batch_session
        ~verify_cost:(Costs.batch_verify_cost ~batch:(List.length reqs))
        ~envelope:(fun ~n3 response anchor ->
          Protocol.verify_batch_envelope ~anchor ~expected_nonce:n3 response)
    in
    let root = response.Protocol.br_root in
    let appraise_item (vid, property, requests_raw) (item : Protocol.batch_item) =
      match gate with
      | `Stale_binding -> Ok (stale_binding_report t vid property)
      | `Verified ->
          if not (String.equal item.Protocol.bi_vid vid) then Error (`Verification `Vid_mismatch)
          else
            let* () =
              verified
                (Protocol.verify_batch_item ~root ~nonce:n3 ~expected_requests:requests_raw item)
            in
            Ok (interpret t ledger vid property item.Protocol.bi_values_raw)
    in
    Ok (List.map2 appraise_item reqs response.Protocol.br_items)
  in
  appraise t ~server ~items ~nonce round

let history t = List.rev t.history
let attestations_done t = t.count
let degraded_count t = t.degraded

(* --- Network service ------------------------------------------------------ *)

(* Both reply shapes: tag 1, the shape's body, the AS cost ledger (so the
   controller can account end-to-end time) and, from an auditing AS only, a
   trailing receipt block the decoder recognizes by the bytes remaining
   after the ledger — without it the bytes are exactly the pre-audit
   format; or tag 0 and the refusal. *)
let encode_error e err =
  Wire.Codec.Enc.u8 e 0;
  Wire.Codec.Enc.str e (Format.asprintf "%a" pp_error err)

let encode_reply ~body ~trailer result ledger =
  Wire.Codec.encode (fun e ->
      match result with
      | Ok x ->
          Wire.Codec.Enc.u8 e 1;
          body e x;
          Wire.Codec.Enc.list e
            (fun (label, cost) ->
              Wire.Codec.Enc.str e label;
              Wire.Codec.Enc.int e cost)
            (Ledger.entries ledger);
          Option.iter (fun encode -> encode e) trailer
      | Error err -> encode_error e err)

let decode_reply ~body ~trailer raw =
  match
    Wire.Codec.decode_opt raw (fun d ->
        match Wire.Codec.Dec.u8 d with
        | 1 ->
            let x = body d in
            let entries =
              Wire.Codec.Dec.list d (fun d ->
                  let label = Wire.Codec.Dec.str d in
                  let cost = Wire.Codec.Dec.int d in
                  (label, cost))
            in
            `Ok (x, entries, if Wire.Codec.Dec.remaining d > 0 then Some (trailer d) else None)
        | 0 -> `Err (Wire.Codec.Dec.str d)
        | _ -> raise (Wire.Codec.Error "bad reply tag"))
  with
  | Some (`Ok x) -> Ok x
  | Some (`Err why) -> Error why
  | None -> Error "malformed AS reply"

let encode_as_report e report = Wire.Codec.Enc.str e (Protocol.encode_as_report report)

(* A single reply carries its verdict's receipt; a batch reply one
   tag+payload per requested item (in request order), so a rejected report
   travels next to its accepted siblings, and one receipt per accepted
   report. *)
let request_handler t ~peer:_ plaintext =
  match Protocol.decode_batch_as_request plaintext with
  | Some breq ->
      let result, ledger =
        attest_batch t ~server:breq.Protocol.ba_server ~items:breq.Protocol.ba_items
          ~nonce:breq.Protocol.ba_nonce
      in
      let trailer =
        match List.rev t.receipts with
        | [] -> None
        | receipts -> Some (fun e -> Wire.Codec.Enc.list e (Audit.Receipt.encode e) receipts)
      in
      encode_reply result ledger ~trailer
        ~body:(fun e ->
          Wire.Codec.Enc.list e (fun (_, _, itemwise) ->
              match itemwise with
              | Ok report ->
                  Wire.Codec.Enc.u8 e 1;
                  encode_as_report e report
              | Error err -> encode_error e err))
  | None ->
      let result, ledger =
        match Protocol.decode_as_request plaintext with
        | None -> (Error (`Server_refused "malformed request"), Ledger.create ())
        | Some req ->
            attest t ~vid:req.Protocol.vid ~server:req.Protocol.server
              ~property:req.Protocol.property ~nonce:req.Protocol.nonce
      in
      let trailer =
        match List.rev t.receipts with
        | [] -> None
        | receipt :: _ -> Some (fun e -> Audit.Receipt.encode e receipt)
      in
      encode_reply result ledger ~body:encode_as_report ~trailer

let decode_as_report ~none raw = Option.to_result ~none (Protocol.decode_as_report raw)

let decode_service_reply raw =
  Result.bind
    (decode_reply raw ~body:Wire.Codec.Dec.str ~trailer:Audit.Receipt.decode)
    (fun (report_raw, entries, receipt) ->
      Result.map
        (fun report -> (report, entries, receipt))
        (decode_as_report ~none:"malformed report in AS reply" report_raw))

let decode_batch_service_reply raw =
  Result.bind
    (decode_reply raw
       ~body:(fun d ->
         Wire.Codec.Dec.list d (fun d ->
             match Wire.Codec.Dec.u8 d with
             | 1 -> Ok (Wire.Codec.Dec.str d)
             | 0 -> Error (Wire.Codec.Dec.str d)
             | _ -> raise (Wire.Codec.Error "bad batch item tag")))
       ~trailer:(fun d -> Wire.Codec.Dec.list d Audit.Receipt.decode))
    (fun (items, entries, receipts) ->
      let rec all acc = function
        | [] -> Ok (List.rev acc, entries, Option.value ~default:[] receipts)
        | Error why :: rest -> all (Error why :: acc) rest
        | Ok raw :: rest ->
            Result.bind (decode_as_report ~none:"malformed report in batch AS reply" raw)
              (fun report -> all (Ok report :: acc) rest)
      in
      all [] items)
