type variant_result = {
  variant : string;
  checks : Verifier.Properties.check list;
  expected_violations : string list;
  as_expected : bool;
}

type result = variant_result list

let variants =
  [
    ("secure protocol (as specified)", Verifier.Model.secure, []);
    ( "no nonces in quoted payloads",
      Verifier.Model.no_nonces,
      [ "freshness" ] );
    ( "no encryption (SSL layer off)",
      Verifier.Model.no_encryption,
      [ "secrecy-payloads"; "auth-customer-controller"; "auth-controller-as"; "auth-as-server" ] );
    ( "channel keys leaked (compromised SSL endpoints)",
      Verifier.Model.compromised_channels,
      [
        "secrecy-channel-keys";
        "secrecy-payloads";
        "auth-customer-controller";
        "auth-controller-as";
        "auth-as-server";
      ] );
    ( "measurements unsigned + channel keys leaked",
      Verifier.Model.no_measurement_signature,
      [
        "secrecy-channel-keys";
        "secrecy-payloads";
        "integrity";
        "freshness";
        "auth-customer-controller";
        "auth-controller-as";
        "auth-as-server";
      ] );
    ( "reports unsigned + channel keys leaked",
      Verifier.Model.no_report_signature,
      [
        "secrecy-channel-keys";
        "secrecy-payloads";
        "integrity";
        "freshness";
        "auth-customer-controller";
        "auth-controller-as";
        "auth-as-server";
      ] );
  ]

let violated checks =
  List.filter_map
    (fun (c : Verifier.Properties.check) ->
      match c.outcome with
      | Verifier.Properties.Holds -> None
      | Verifier.Properties.Violated _ -> Some c.id)
    checks

let run () =
  List.map
    (fun (name, variant, expected) ->
      let checks = Verifier.Properties.run variant in
      let got = List.sort compare (violated checks) in
      let expected_violations = List.sort compare expected in
      { variant = name; checks; expected_violations; as_expected = got = expected_violations })
    variants

let all_as_expected rs = List.for_all (fun r -> r.as_expected) rs

let print rs =
  Common.section "Section 7.2.2: protocol verification (Dolev-Yao symbolic checker)";
  List.iter
    (fun r ->
      Printf.printf "\n--- %s  [%s]\n" r.variant
        (if r.as_expected then "matches expectations" else "UNEXPECTED OUTCOME");
      List.iter
        (fun c -> Printf.printf "  %s\n" (Format.asprintf "%a" Verifier.Properties.pp_check c))
        r.checks)
    rs;
  print_endline
    (if all_as_expected rs then "\nAll protocol variants behave as expected."
     else "\nUNEXPECTED verification outcome!")
