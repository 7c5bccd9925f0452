type t = {
  ca : Net.Ca.t;
  servers : (string, Crypto.Rsa.public) Hashtbl.t;
  (* Migratable vTPMs enroll with an explicit binding epoch; the CA only
     certifies session keys endorsed at the currently registered epoch with
     a non-stale marker, which is what forces a restored vTPM through
     re-registration before its quotes verify again. *)
  evtpms : (string, Crypto.Rsa.public * int ref) Hashtbl.t;
}

let anonymous_subject = "cloudmonatt-attestation-key"

let create ~seed ?(bits = 1024) () =
  {
    ca = Net.Ca.create ~seed ~bits ~name:"privacy-ca" ();
    servers = Hashtbl.create 8;
    evtpms = Hashtbl.create 8;
  }

let public t = Net.Ca.public t.ca

let enroll_server t ~name key = Hashtbl.replace t.servers name key

let enroll_evtpm t ~name key ~epoch = Hashtbl.replace t.evtpms name (key, ref epoch)

let rebind_evtpm t ~name key ~epoch = Hashtbl.replace t.evtpms name (key, ref epoch)

let enrolled t = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.servers [])

let certify_attestation_key t ~key ~endorsement =
  let payload = Tpm.Backend.endorsement_payload key in
  let endorsed =
    Hashtbl.fold
      (* Memoized: a re-certification of the same attestation key retries
         the same (endorsement, payload) pair against the same server keys,
         including the misses against non-matching servers. *)
      (fun _ vks acc -> acc || Crypto.Rsa.verify_memo vks ~signature:endorsement payload)
      t.servers false
  in
  if endorsed then Ok (Net.Ca.issue t.ca ~subject:anonymous_subject key)
  else Error `Unknown_server

let certify_evtpm_key t ~key ~endorsement =
  let check vk ~epoch ~stale =
    Crypto.Rsa.verify_memo vk ~signature:endorsement
      (Tpm.Backend.evtpm_endorsement_payload ~epoch ~stale key)
  in
  let found =
    Hashtbl.fold
      (fun _ (vk, epoch) acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if check vk ~epoch:!epoch ~stale:false then Some `Fresh
            else begin
              (* A quote that fails the current-epoch fresh check may still
                 be from this vTPM: restored state signs with the stale
                 marker, and state saved before a rebind signs at an older
                 epoch.  Either way the binding is stale — distinguishable
                 from an unknown module, and reported as such. *)
              let stale_hit = ref (check vk ~epoch:!epoch ~stale:true) in
              let e = ref (!epoch - 1) in
              while (not !stale_hit) && !e >= 0 do
                stale_hit := check vk ~epoch:!e ~stale:false || check vk ~epoch:!e ~stale:true;
                decr e
              done;
              if !stale_hit then Some `Stale else None
            end)
      t.evtpms None
  in
  match found with
  | Some `Fresh -> Ok (Net.Ca.issue t.ca ~subject:anonymous_subject key)
  | Some `Stale -> Error `Stale_binding
  | None -> Error `Unknown_server

let check_certificate ~pca cert ~key =
  Net.Ca.verify ~ca:pca cert
  && String.equal cert.Net.Ca.subject anonymous_subject
  && String.equal (Crypto.Rsa.public_to_string cert.Net.Ca.pubkey) (Crypto.Rsa.public_to_string key)
