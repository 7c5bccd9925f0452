(* Tests for the network substrate: CA, simulated network with adversary,
   and the secure channel (including active attacks). *)

let qtest = QCheck_alcotest.to_alcotest

let ca = lazy (Net.Ca.create ~seed:"test" ~bits:512 ~name:"testca" ())

let identity name = Net.Secure_channel.Identity.make (Lazy.force ca) ~seed:name ~bits:512 ~name ()

(* --- CA ------------------------------------------------------------------- *)

let test_ca_issue_verify () =
  let ca = Lazy.force ca in
  let id = identity "alice-ca-test" in
  Alcotest.(check bool) "issued cert verifies" true (Net.Ca.verify ~ca:(Net.Ca.public ca) id.cert);
  Alcotest.(check string) "subject" "alice-ca-test" id.cert.subject

let test_ca_wrong_ca_rejects () =
  let other = Net.Ca.create ~seed:"other" ~bits:512 ~name:"otherca" () in
  let id = identity "bob-ca-test" in
  Alcotest.(check bool) "foreign CA rejects" false
    (Net.Ca.verify ~ca:(Net.Ca.public other) id.cert)

let test_ca_tampered_subject_rejects () =
  let ca = Lazy.force ca in
  let id = identity "carol-ca-test" in
  let forged = { id.cert with Net.Ca.subject = "mallory" } in
  Alcotest.(check bool) "renamed cert rejects" false (Net.Ca.verify ~ca:(Net.Ca.public ca) forged)

let test_ca_cert_codec_roundtrip () =
  let id = identity "dave-ca-test" in
  let encoded = Wire.Codec.encode (fun e -> Net.Ca.encode e id.cert) in
  let decoded = Wire.Codec.decode encoded Net.Ca.decode in
  Alcotest.(check string) "subject" id.cert.subject decoded.Net.Ca.subject;
  Alcotest.(check bool) "still verifies" true
    (Net.Ca.verify ~ca:(Net.Ca.public (Lazy.force ca)) decoded)

(* --- Network ---------------------------------------------------------------- *)

let make_net () = Net.Network.create ~seed:1 ()

let test_network_echo () =
  let net = make_net () in
  Net.Network.register net "echo" (fun s -> "echo:" ^ s);
  let reply, elapsed = Net.Network.call net ~src:"c" ~dst:"echo" "hi" in
  Alcotest.(check bool) "reply" true (reply = Ok "echo:hi");
  Alcotest.(check bool) "positive latency" true (elapsed > 0)

let test_network_no_host () =
  let net = make_net () in
  let reply, _ = Net.Network.call net ~src:"c" ~dst:"ghost" "hi" in
  Alcotest.(check bool) "no such host" true (reply = Error (`No_such_host "ghost"))

let test_network_unregister () =
  let net = make_net () in
  Net.Network.register net "x" (fun s -> s);
  Net.Network.unregister net "x";
  let reply, _ = Net.Network.call net ~src:"c" ~dst:"x" "hi" in
  Alcotest.(check bool) "gone" true (reply = Error (`No_such_host "x"))

let test_network_adversary_drop () =
  let net = make_net () in
  Net.Network.register net "s" (fun s -> s);
  Net.Network.set_adversary net (fun _ -> Net.Network.Drop);
  let reply, _ = Net.Network.call net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "dropped" true (reply = Error `Dropped);
  Net.Network.clear_adversary net;
  let reply, _ = Net.Network.call net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "restored" true (reply = Ok "hi")

let test_network_adversary_replace () =
  let net = make_net () in
  Net.Network.register net "s" (fun s -> s);
  Net.Network.set_adversary net (fun m ->
      match m.Net.Network.dir with
      | Net.Network.Request -> Net.Network.Replace "evil"
      | Net.Network.Reply -> Net.Network.Pass);
  let reply, _ = Net.Network.call net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "replaced" true (reply = Ok "evil")

let test_network_eavesdrop_log () =
  let net = make_net () in
  Net.Network.register net "s" (fun s -> s);
  ignore (Net.Network.call net ~src:"c" ~dst:"s" "one");
  ignore (Net.Network.call net ~src:"c" ~dst:"s" "two");
  let log = Net.Network.recorded net in
  Alcotest.(check int) "4 messages (2 req + 2 rep)" 4 (List.length log);
  Alcotest.(check int) "message_count" 4 (Net.Network.message_count net);
  let first = List.hd log in
  Alcotest.(check string) "oldest first" "one" first.Net.Network.payload

let test_network_transfer_time_scales () =
  let t1 = Net.Network.transfer_time ~bytes:1_000_000 in
  let t2 = Net.Network.transfer_time ~bytes:10_000_000 in
  Alcotest.(check bool) "larger is slower" true (t2 > t1)

(* --- Secure channel ----------------------------------------------------------- *)

let setup_channel ?(server_name = "server") ?(client_name = "client") ?(accept = fun _ -> true)
    () =
  let ca_t = Lazy.force ca in
  let net = make_net () in
  let server_id = identity server_name in
  let client_id = identity client_name in
  let received = ref [] in
  let server =
    Net.Secure_channel.Server.create ~identity:server_id ~ca:(Net.Ca.public ca_t) ~seed:"srv"
      ~accept ~on_request:(fun ~peer msg ->
        received := (peer, msg) :: !received;
        "ok:" ^ msg)
  in
  Net.Network.register net server_name (Net.Secure_channel.Server.handle server);
  let transport msg =
    match Net.Network.call net ~src:client_name ~dst:server_name msg with
    | Ok r, _ -> Ok r
    | Error `Dropped, _ -> Error "dropped"
    | Error (`No_such_host h), _ -> Error ("no host " ^ h)
  in
  (net, server, client_id, transport, received)

let connect_ok ?(peer = "server") client_id transport =
  match
    Net.Secure_channel.Client.connect ~identity:client_id ~ca:(Net.Ca.public (Lazy.force ca))
      ~seed:"cl" ~peer ~transport
  with
  | Ok ch -> ch
  | Error e -> Alcotest.failf "connect failed: %a" Net.Secure_channel.pp_error e

let test_channel_roundtrip () =
  let _net, _server, client_id, transport, received = setup_channel () in
  let ch = connect_ok client_id transport in
  (match Net.Secure_channel.Client.call ch "hello" with
  | Ok r -> Alcotest.(check string) "reply" "ok:hello" r
  | Error e -> Alcotest.failf "call failed: %a" Net.Secure_channel.pp_error e);
  Alcotest.(check (list (pair string string))) "server saw authenticated peer"
    [ ("client", "hello") ] !received;
  Alcotest.(check string) "peer name" "server" (Net.Secure_channel.Client.peer ch)

let test_channel_many_calls () =
  let _net, _server, client_id, transport, _ = setup_channel () in
  let ch = connect_ok client_id transport in
  for i = 1 to 20 do
    match Net.Secure_channel.Client.call ch (string_of_int i) with
    | Ok r -> Alcotest.(check string) "sequenced" ("ok:" ^ string_of_int i) r
    | Error e -> Alcotest.failf "call %d failed: %a" i Net.Secure_channel.pp_error e
  done

let test_channel_wrong_peer_name () =
  let _net, _server, client_id, transport, _ = setup_channel () in
  match
    Net.Secure_channel.Client.connect ~identity:client_id ~ca:(Net.Ca.public (Lazy.force ca))
      ~seed:"cl" ~peer:"somebody-else" ~transport
  with
  | Ok _ -> Alcotest.fail "should refuse a mis-named peer"
  | Error `Auth_failure -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Net.Secure_channel.pp_error e

let test_channel_foreign_ca_client_rejected () =
  let _net, _server, _client_id, transport, _ = setup_channel () in
  let evil_ca = Net.Ca.create ~seed:"evil" ~bits:512 ~name:"evilca" () in
  let evil_id = Net.Secure_channel.Identity.make evil_ca ~seed:"evil" ~bits:512 ~name:"client" () in
  match
    Net.Secure_channel.Client.connect ~identity:evil_id ~ca:(Net.Ca.public (Lazy.force ca))
      ~seed:"cl" ~peer:"server" ~transport
  with
  | Ok _ -> Alcotest.fail "foreign-CA client must be rejected"
  | Error (`Rejected _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Net.Secure_channel.pp_error e

let test_channel_accept_rule () =
  let _net, _server, client_id, transport, _ = setup_channel ~accept:(String.equal "vip") () in
  (match
     Net.Secure_channel.Client.connect ~identity:client_id ~ca:(Net.Ca.public (Lazy.force ca))
       ~seed:"cl" ~peer:"server" ~transport
   with
  | Ok _ -> Alcotest.fail "non-vip must be rejected"
  | Error (`Rejected _) -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Net.Secure_channel.pp_error e)

let test_channel_tamper_detected () =
  let net, _server, client_id, transport, _ = setup_channel () in
  let ch = connect_ok client_id transport in
  (* Flip one ciphertext byte of each sufficiently long request. *)
  Net.Network.set_adversary net (Attacks.Network_attacker.flip_byte ~min_len:60 ());
  (match Net.Secure_channel.Client.call ch "payload" with
  | Ok _ -> Alcotest.fail "tampering must be detected"
  | Error (`Rejected _) | Error `Auth_failure -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Net.Secure_channel.pp_error e);
  (* Channel recovers once the adversary leaves (no state was consumed). *)
  Net.Network.clear_adversary net;
  match Net.Secure_channel.Client.call ch "again" with
  | Ok r -> Alcotest.(check string) "recovered" "ok:again" r
  | Error e -> Alcotest.failf "recovery failed: %a" Net.Secure_channel.pp_error e

let test_channel_replay_rejected () =
  let net, _server, client_id, transport, received = setup_channel () in
  let ch = connect_ok client_id transport in
  (match Net.Secure_channel.Client.call ch "first" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first call failed: %a" Net.Secure_channel.pp_error e);
  (* Replay each later request as a copy of the first data record. *)
  Net.Network.set_adversary net (Attacks.Network_attacker.replay_requests ());
  ignore (Net.Secure_channel.Client.call ch "probe");
  (match Net.Secure_channel.Client.call ch "second" with
  | Ok _ -> Alcotest.fail "replayed record must be rejected"
  | Error (`Rejected _) | Error `Auth_failure | Error `Replay -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Net.Secure_channel.pp_error e);
  (* The server must have processed "first" exactly once. *)
  let firsts = List.filter (fun (_, m) -> String.equal m "first") !received in
  Alcotest.(check int) "no duplicate delivery" 1 (List.length firsts)

let test_channel_sessions_counted () =
  let _net, server, client_id, transport, _ = setup_channel () in
  ignore (connect_ok client_id transport);
  Alcotest.(check int) "one session" 1 (Net.Secure_channel.Server.sessions server)

(* --- Fault tolerance: retry, resync, degradation ----------------------------- *)

(* Drop exactly the next reply-direction message, then pass everything. *)
let drop_next_reply () =
  let armed = ref true in
  fun (m : Net.Network.message) ->
    if !armed && m.Net.Network.dir = Net.Network.Reply then begin
      armed := false;
      Net.Network.Drop
    end
    else Net.Network.Pass

let test_network_retry_survives_outage () =
  let net = make_net () in
  Net.Network.register net "s" (fun s -> "ok:" ^ s);
  Net.Network.set_adversary net (Net.Fault.drop_first 3);
  let plain, _ = Net.Network.call net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "plain call lost" true (plain = Error `Dropped);
  (* Two more drops remain; attempt 3 of the retrying call gets through. *)
  let retried, elapsed = Net.Network.call_with_retry net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "retry succeeds" true (retried = Ok "ok:hi");
  Alcotest.(check bool) "backoff waits charged" true
    (elapsed >= Net.Network.default_retry_policy.Net.Network.base_delay);
  Alcotest.(check int) "drops counted" 3 (Net.Network.drop_count net);
  Alcotest.(check int) "re-sends counted" 2 (Net.Network.retry_count net)

let test_network_retry_blackout_terminates () =
  let net = make_net () in
  Net.Network.register net "s" (fun s -> s);
  Net.Network.set_adversary net (Net.Fault.blackout ());
  let r, elapsed = Net.Network.call_with_retry net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "gives up with Dropped" true (r = Error `Dropped);
  (match Net.Network.default_retry_policy.Net.Network.deadline with
  | Some d -> Alcotest.(check bool) "bounded by deadline" true (elapsed <= d)
  | None -> ());
  Alcotest.(check int) "bounded attempts" 4 (Net.Network.drop_count net)

let test_network_retry_deadline_mid_backoff () =
  (* Attempts remain, but the pending backoff wait would overrun the
     deadline: the retry must not even be attempted, and the wait that was
     never taken must not be charged. *)
  let blackout_net () =
    let net = make_net () in
    Net.Network.register net "s" (fun s -> s);
    Net.Network.set_adversary net (Net.Fault.blackout ());
    net
  in
  let policy =
    {
      Net.Network.max_attempts = 5;
      base_delay = Sim.Time.ms 10;
      backoff = 2.0;
      max_delay = Sim.Time.ms 50;
      deadline = Some (Sim.Time.ms 5);
    }
  in
  let net = blackout_net () in
  let r, elapsed = Net.Network.call_with_retry ~policy net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "dropped" true (r = Error `Dropped);
  Alcotest.(check int) "single attempt" 1 (Net.Network.drop_count net);
  Alcotest.(check int) "no re-sends" 0 (Net.Network.retry_count net);
  Alcotest.(check bool) "deadline honoured" true (elapsed <= Sim.Time.ms 5);
  (* A deadline that survives the 2 ms wait and the 4 ms wait but not the
     8 ms one is deadline-bound, not attempts-bound: exactly three of the
     five permitted attempts run. *)
  let net2 = blackout_net () in
  let policy2 =
    { policy with Net.Network.base_delay = Sim.Time.ms 2; deadline = Some (Sim.Time.ms 7) }
  in
  let r2, elapsed2 = Net.Network.call_with_retry ~policy:policy2 net2 ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "dropped (mid-backoff)" true (r2 = Error `Dropped);
  Alcotest.(check int) "three attempts" 3 (Net.Network.drop_count net2);
  Alcotest.(check int) "two re-sends" 2 (Net.Network.retry_count net2);
  Alcotest.(check bool) "both waits charged" true (elapsed2 >= Sim.Time.ms 6);
  Alcotest.(check bool) "deadline honoured (mid-backoff)" true (elapsed2 <= Sim.Time.ms 7)

let test_network_retry_blackout_spans_all_attempts () =
  (* With no deadline, a total partition burns every attempt, and the
     elapsed time is exactly legs + the capped backoff schedule. *)
  let net = make_net () in
  Net.Network.register net "s" (fun s -> s);
  Net.Network.set_adversary net (Net.Fault.blackout ());
  let policy =
    {
      Net.Network.max_attempts = 4;
      base_delay = Sim.Time.ms 2;
      backoff = 10.0;
      max_delay = Sim.Time.ms 5;
      deadline = None;
    }
  in
  let r, elapsed = Net.Network.call_with_retry ~policy net ~src:"c" ~dst:"s" "hi" in
  Alcotest.(check bool) "dropped after all attempts" true (r = Error `Dropped);
  Alcotest.(check int) "all attempts made" 4 (Net.Network.drop_count net);
  Alcotest.(check int) "re-sends counted" 3 (Net.Network.retry_count net);
  (* waits: 2 ms, then 20 ms capped to 5, then 200 ms capped to 5 = 12 ms,
     plus four sub-millisecond request legs *)
  Alcotest.(check bool) "backoff schedule charged" true (elapsed >= Sim.Time.ms 12);
  Alcotest.(check bool) "cap applied" true (elapsed <= Sim.Time.ms 14)

let test_network_replace_bytes_accounting () =
  let net = make_net () in
  Net.Network.register net "s" (fun _ -> "r");
  Net.Network.set_adversary net (fun m ->
      match m.Net.Network.dir with
      | Net.Network.Request -> Net.Network.Replace "XXXXXXXXXX"
      | Net.Network.Reply -> Net.Network.Pass);
  ignore (Net.Network.call net ~src:"c" ~dst:"s" "hi");
  (* 2-byte request rewritten to 10 delivered bytes, 1-byte reply passed:
     the wire carried 11 bytes, not 3. *)
  Alcotest.(check int) "delivered lengths counted" 11 (Net.Network.bytes_sent net)

let test_channel_reset_recovers_desync () =
  let net, _server, client_id, transport, received = setup_channel () in
  let ch = connect_ok client_id transport in
  (* Lose a data-record reply: the server consumed the sequence number, the
     client did not advance — the two ends are now desynced. *)
  Net.Network.set_adversary net (drop_next_reply ());
  (match Net.Secure_channel.Client.call ch "lost" with
  | Ok _ -> Alcotest.fail "reply was dropped, call must fail"
  | Error e -> Alcotest.(check bool) "loss is transient" true (Net.Secure_channel.transient e));
  Net.Network.clear_adversary net;
  (* A *different* request hits the already-consumed sequence number. *)
  (match Net.Secure_channel.Client.call ch "fresh" with
  | Ok _ -> Alcotest.fail "desynced channel must refuse"
  | Error e -> Alcotest.(check bool) "desync detected" true (Net.Secure_channel.desync e));
  (match Net.Secure_channel.Client.reset ch with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reset failed: %a" Net.Secure_channel.pp_error e);
  Alcotest.(check int) "re-handshaked" 2 (Net.Secure_channel.Client.handshakes ch);
  (match Net.Secure_channel.Client.call ch "after-reset" with
  | Ok r -> Alcotest.(check string) "channel works again" "ok:after-reset" r
  | Error e -> Alcotest.failf "call after reset failed: %a" Net.Secure_channel.pp_error e);
  let losts = List.filter (fun (_, m) -> String.equal m "lost") !received in
  Alcotest.(check int) "lost request executed exactly once" 1 (List.length losts)

let test_channel_call_robust_auto_recovers () =
  let net, _server, client_id, transport, _ = setup_channel () in
  let ch = connect_ok client_id transport in
  Net.Network.set_adversary net (drop_next_reply ());
  ignore (Net.Secure_channel.Client.call ch "lost");
  Net.Network.clear_adversary net;
  match Net.Secure_channel.Client.call_robust ch "fresh" with
  | Ok r ->
      Alcotest.(check string) "recovered transparently" "ok:fresh" r;
      Alcotest.(check bool) "recovery used a reset" true
        (Net.Secure_channel.Client.handshakes ch >= 2)
  | Error e -> Alcotest.failf "call_robust failed: %a" Net.Secure_channel.pp_error e

let test_channel_retried_record_idempotent () =
  let ca_t = Lazy.force ca in
  let net = make_net () in
  let server_id = identity "idem-server" in
  let client_id = identity "idem-client" in
  let hits = ref 0 in
  let server =
    Net.Secure_channel.Server.create ~identity:server_id ~ca:(Net.Ca.public ca_t) ~seed:"srv"
      ~accept:(fun _ -> true) ~on_request:(fun ~peer:_ msg ->
        incr hits;
        "ok:" ^ msg)
  in
  Net.Network.register net "idem-server" (Net.Secure_channel.Server.handle server);
  (* The transport itself retries, re-sending the identical record bytes. *)
  let transport msg =
    match Net.Network.call_with_retry net ~src:"idem-client" ~dst:"idem-server" msg with
    | Ok r, _ -> Ok r
    | Error `Dropped, _ -> Error "dropped"
    | Error (`No_such_host h), _ -> Error ("no host " ^ h)
  in
  let ch = connect_ok ~peer:"idem-server" client_id transport in
  (* The server executes the request but its reply is lost; the retried
     record must be answered from the reply cache, not re-executed. *)
  Net.Network.set_adversary net (drop_next_reply ());
  (match Net.Secure_channel.Client.call ch "once" with
  | Ok r -> Alcotest.(check string) "reply recovered from cache" "ok:once" r
  | Error e -> Alcotest.failf "retried call failed: %a" Net.Secure_channel.pp_error e);
  Alcotest.(check int) "handler executed exactly once" 1 !hits

let test_channel_retry_after_reply_cache_hit () =
  (* A reply-cache hit must leave the channel's sequence state consistent:
     after a call is recovered from the server's cache, later calls (and
     later cache recoveries) still work on the same session, and every
     request executes exactly once. *)
  let ca_t = Lazy.force ca in
  let net = make_net () in
  let server_id = identity "cache-server" in
  let client_id = identity "cache-client" in
  let received = ref [] in
  let server =
    Net.Secure_channel.Server.create ~identity:server_id ~ca:(Net.Ca.public ca_t) ~seed:"srv"
      ~accept:(fun _ -> true) ~on_request:(fun ~peer:_ msg ->
        received := msg :: !received;
        "ok:" ^ msg)
  in
  Net.Network.register net "cache-server" (Net.Secure_channel.Server.handle server);
  let transport msg =
    match Net.Network.call_with_retry net ~src:"cache-client" ~dst:"cache-server" msg with
    | Ok r, _ -> Ok r
    | Error `Dropped, _ -> Error "dropped"
    | Error (`No_such_host h), _ -> Error ("no host " ^ h)
  in
  let ch = connect_ok ~peer:"cache-server" client_id transport in
  List.iter
    (fun msg ->
      (* every reply is lost once, so every call is a cache recovery *)
      Net.Network.set_adversary net (drop_next_reply ());
      match Net.Secure_channel.Client.call ch msg with
      | Ok r -> Alcotest.(check string) ("recovered: " ^ msg) ("ok:" ^ msg) r
      | Error e -> Alcotest.failf "call %s failed: %a" msg Net.Secure_channel.pp_error e)
    [ "first"; "second"; "third" ];
  Net.Network.clear_adversary net;
  (match Net.Secure_channel.Client.call ch "fresh" with
  | Ok r -> Alcotest.(check string) "clean call after recoveries" "ok:fresh" r
  | Error e -> Alcotest.failf "clean call failed: %a" Net.Secure_channel.pp_error e);
  Alcotest.(check int) "no reset was needed" 1 (Net.Secure_channel.Client.handshakes ch);
  Alcotest.(check (list string))
    "each request executed exactly once" [ "first"; "second"; "third"; "fresh" ]
    (List.rev !received)

let fault_cloud () =
  let cloud =
    Core.Cloud.build ~config:{ Core.Cloud.default_config with key_bits = 512 } ()
  in
  let customer = Core.Cloud.Customer.create cloud ~name:"alice" in
  match
    Core.Cloud.Customer.launch customer ~image:"cirros" ~flavor:"small"
      ~properties:[ Core.Property.Startup_integrity ] ()
  with
  | Error e -> Alcotest.failf "launch failed: %a" Core.Cloud.Customer.pp_error e
  | Ok info -> (cloud, customer, info.Core.Commands.vid)

let test_attestation_survives_drop_every_3rd () =
  let cloud, customer, vid = fault_cloud () in
  let net = Core.Cloud.net cloud in
  Net.Network.set_adversary net (Net.Fault.drop_nth 3);
  (match Core.Cloud.Customer.attest customer ~vid ~property:Core.Property.Startup_integrity with
  | Ok report ->
      Alcotest.(check bool) "healthy verdict through lossy net" true
        (Core.Report.is_healthy report)
  | Error e -> Alcotest.failf "attest under loss failed: %a" Core.Cloud.Customer.pp_error e);
  Alcotest.(check bool) "retries actually happened" true (Net.Network.retry_count net > 0)

let test_attestation_blackout_degrades_to_unknown () =
  let cloud, _customer, vid = fault_cloud () in
  let net = Core.Cloud.net cloud in
  Net.Network.set_adversary net (Net.Fault.blackout ());
  let controller = Core.Cloud.controller cloud in
  let result, _ledger =
    Core.Controller.attest controller
      { Core.Protocol.vid; property = Core.Property.Startup_integrity; nonce = "n1" }
  in
  match result with
  | Ok creport -> (
      match creport.Core.Protocol.report.Core.Report.status with
      | Core.Report.Unknown _ -> ()
      | s -> Alcotest.failf "expected Unknown, got %a" Core.Report.pp_status s)
  | Error e -> Alcotest.failf "expected a degraded report, got hard error: %s" e

let channel_payload_roundtrip =
  QCheck.Test.make ~name:"arbitrary payloads roundtrip" ~count:30 QCheck.string (fun s ->
      let _net, _server, client_id, transport, _ = setup_channel () in
      let ch = connect_ok client_id transport in
      Net.Secure_channel.Client.call ch s = Ok ("ok:" ^ s))

let () =
  Alcotest.run "net"
    [
      ( "ca",
        [
          Alcotest.test_case "issue/verify" `Quick test_ca_issue_verify;
          Alcotest.test_case "wrong CA rejects" `Quick test_ca_wrong_ca_rejects;
          Alcotest.test_case "tampered subject rejects" `Quick test_ca_tampered_subject_rejects;
          Alcotest.test_case "codec roundtrip" `Quick test_ca_cert_codec_roundtrip;
        ] );
      ( "network",
        [
          Alcotest.test_case "echo" `Quick test_network_echo;
          Alcotest.test_case "no host" `Quick test_network_no_host;
          Alcotest.test_case "unregister" `Quick test_network_unregister;
          Alcotest.test_case "adversary drop" `Quick test_network_adversary_drop;
          Alcotest.test_case "adversary replace" `Quick test_network_adversary_replace;
          Alcotest.test_case "eavesdrop log" `Quick test_network_eavesdrop_log;
          Alcotest.test_case "transfer time scales" `Quick test_network_transfer_time_scales;
        ] );
      ( "secure-channel",
        [
          Alcotest.test_case "roundtrip" `Quick test_channel_roundtrip;
          Alcotest.test_case "many calls" `Quick test_channel_many_calls;
          Alcotest.test_case "wrong peer name" `Quick test_channel_wrong_peer_name;
          Alcotest.test_case "foreign CA client" `Quick test_channel_foreign_ca_client_rejected;
          Alcotest.test_case "accept rule" `Quick test_channel_accept_rule;
          Alcotest.test_case "tamper detected" `Quick test_channel_tamper_detected;
          Alcotest.test_case "replay rejected" `Quick test_channel_replay_rejected;
          Alcotest.test_case "sessions counted" `Quick test_channel_sessions_counted;
          qtest channel_payload_roundtrip;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "retry survives outage" `Quick test_network_retry_survives_outage;
          Alcotest.test_case "retry blackout terminates" `Quick
            test_network_retry_blackout_terminates;
          Alcotest.test_case "retry deadline expires mid-backoff" `Quick
            test_network_retry_deadline_mid_backoff;
          Alcotest.test_case "blackout spans all attempts" `Quick
            test_network_retry_blackout_spans_all_attempts;
          Alcotest.test_case "replace bytes accounting" `Quick
            test_network_replace_bytes_accounting;
          Alcotest.test_case "reset recovers desync" `Quick test_channel_reset_recovers_desync;
          Alcotest.test_case "call_robust auto-recovers" `Quick
            test_channel_call_robust_auto_recovers;
          Alcotest.test_case "retried record idempotent" `Quick
            test_channel_retried_record_idempotent;
          Alcotest.test_case "retry after reply-cache hit" `Quick
            test_channel_retry_after_reply_cache_hit;
          Alcotest.test_case "attestation under drop-every-3rd" `Quick
            test_attestation_survives_drop_every_3rd;
          Alcotest.test_case "blackout degrades to unknown" `Quick
            test_attestation_blackout_degrades_to_unknown;
        ] );
    ]
