(* The benchmark at tiny size: 512-bit keys, three ops per workload. *)

open Perf_bench

let tiny = Workloads.params Workloads.Tiny
let seed = 2015

let workload name =
  match Workloads.find name with Some w -> w | None -> Alcotest.failf "no workload %s" name

(* The metric names BENCHMARK.json lists under [key]. *)
let listed key =
  let doc = Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  List.filter_map
    (fun m -> Option.bind (Json.member "name" m) Json.to_str)
    (Json.to_list (Option.value ~default:Json.Null (Json.member key doc)))

let check_emitted ~key (o : Bench.outcome) =
  let names = listed key in
  Alcotest.(check bool) (key ^ " listed") true (names <> []);
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) o.Bench.metrics with
      | Some (_, v, _) ->
          if not (Float.is_finite v) then Alcotest.failf "%s %s is not finite" o.Bench.workload name
      | None -> Alcotest.failf "%s does not emit %s" o.Bench.workload name)
    names;
  Alcotest.(check int) "no unlisted metric" (List.length names) (List.length o.Bench.metrics)

let traced_rows () =
  let o = Bench.run (workload "fleet-monitor") tiny ~seed ~seconds:60. ~trace:true in
  Alcotest.(check bool) "gates pass" true o.Bench.correct;
  check_emitted ~key:"per_layer" o

(* Per op, the hops' self times plus the tracer's own time add up to the
   op's latency exactly, and the timed loop opens no new channel. *)
let reconciles (r : Workloads.result) =
  let tr = Option.get r.Workloads.tracer in
  let selves = Tracer.self_times tr in
  Alcotest.(check bool) "spans below the root" true
    (List.exists (fun s -> s.Tracer.span.Tracer.parent >= 0) selves);
  List.iter
    (fun root ->
      let s = root.Tracer.span in
      if s.Tracer.parent < 0 then begin
        let mine = List.filter (fun x -> x.Tracer.span.Tracer.op = s.Tracer.op) selves in
        let sum f = List.fold_left (fun acc x -> acc + f x) 0 mine in
        Alcotest.(check int)
          (Printf.sprintf "op %d" s.Tracer.op)
          (s.Tracer.t1 - s.Tracer.t0)
          (sum (fun x -> x.Tracer.self_ns) + sum (fun x -> x.Tracer.span.Tracer.hook_ns))
      end)
    selves;
  let rows = Workloads.hop_rows tr in
  Alcotest.(check (float 0.)) "no handshake in the timed loop" 0. (List.assoc "net.handshakes" rows)

(* One tiny run through the library entry: gates pass, every end-to-end
   metric is emitted, and the tracer only watches — wire bytes, verdicts and
   simulated outputs are byte-identical with it installed.  A fuzz campaign
   run makes at least two replays, so one run is its tiny size. *)
let workload_run name () =
  let w = workload name in
  let p = if name = "fuzz-campaign" then { tiny with max_ops = 1 } else tiny in
  let o = Bench.run w p ~seed ~seconds:60. ~trace:false in
  Alcotest.(check bool) "gates pass" true o.Bench.correct;
  Alcotest.(check int) "exit status" 0 (Bench.exit_code o);
  Alcotest.(check int) "ops attempted" p.Workloads.max_ops
    (if name = "attest-warm" then
       o.Bench.attempted / (tiny.Workloads.warm_vms_per_server + tiny.Workloads.warm_reads)
     else o.Bench.attempted);
  check_emitted ~key:"end_to_end" o;
  if name <> "fuzz-campaign" then begin
    let traced = w.Workloads.run ~trace:true p ~seed ~seconds:60. in
    Alcotest.(check string)
      "fingerprint with tracer" o.Bench.fingerprint traced.Workloads.fingerprint;
    Option.iter (fun _ -> reconciles traced) traced.Workloads.tracer
  end

(* A failing output gate must flip the exit status. *)
let planted_gate () =
  let w = workload "fleet-monitor" in
  let planted =
    {
      w with
      Workloads.run =
        (fun ?trace p ~seed ~seconds ->
          let r = w.Workloads.run ?trace p ~seed ~seconds in
          { r with Workloads.checks = ("planted", false) :: r.Workloads.checks });
    }
  in
  let o = Bench.run planted tiny ~seed ~seconds:60. ~trace:false in
  Alcotest.(check bool) "incorrect" false o.Bench.correct;
  Alcotest.(check int) "exit status" 1 (Bench.exit_code o)

(* Wrapped around another adversary, the tracer returns that adversary's
   decisions and still records the hop. *)
let composes () =
  let net = Net.Network.create ~seed:1 () in
  Net.Network.register net "echo" (fun s -> s);
  let tr = Tracer.create ~hop_of:Fun.id () in
  let inner (m : Net.Network.message) =
    if m.Net.Network.dir = Net.Network.Reply then Net.Network.Replace "rewritten"
    else Net.Network.Pass
  in
  Tracer.install ~inner tr net;
  let reply, _ =
    Tracer.op tr ~name:"caller" (fun () -> Net.Network.call net ~src:"caller" ~dst:"echo" "hi")
  in
  Alcotest.(check (result string reject)) "inner decision kept" (Ok "rewritten")
    (Result.map_error (fun _ -> ()) reply);
  Alcotest.(check (list string)) "spans" [ "caller"; "echo" ]
    (List.map (fun s -> s.Tracer.name) (Tracer.spans tr))

let quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ]

let () =
  let names = List.map (fun w -> w.Workloads.name) Workloads.all in
  Alcotest.run "perf"
    [
      ("workloads", List.map (fun n -> Alcotest.test_case n `Quick (workload_run n)) names);
      ( "tracer",
        [
          Alcotest.test_case "every per-layer row" `Quick traced_rows;
          Alcotest.test_case "composes with an adversary" `Quick composes;
        ] );
      ( "gates",
        [
          Alcotest.test_case "planted failure exits 1" `Quick planted_gate;
          Alcotest.test_case "quartiles" `Quick quartiles;
        ] );
    ]
