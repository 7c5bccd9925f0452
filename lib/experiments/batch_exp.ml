(* Batched-attestation frontier: served throughput and tail latency versus
   Merkle batch size, across offered rate and AS shard count (cache off, so
   the amortization win is not confounded with verdict caching).

   The batch-1 column uses the exact pre-batching driver configuration
   (batch_max = 1 disables every piece of batch machinery), so its rows
   reproduce the unbatched BENCH_fleet numbers for matching configs. *)

type row = { batch : int; rate : float; as_count : int; r : Fleet.Driver.result }

type result = { seed : int; scale : string; rows : row list }

type sweep = {
  batches : int list;
  rates : float list;
  as_counts : int list;
  base : Fleet.Driver.config;
}

let default_sweep ~seed =
  {
    batches = [ 1; 4; 8; 16; 32 ];
    (* 32 req/s is ~3.4x what one capacity-1 shard serves cold (~9.4 req/s
       since the CRT recalibration), deep enough into saturation for the
       frontier to show the amortization ceiling. *)
    rates = [ 8.0; 16.0; 32.0 ];
    as_counts = [ 1; 2 ];
    base = { Fleet.Driver.default_config with seed };
  }

let smoke_sweep ~seed =
  {
    batches = [ 1; 8 ];
    (* Twice the ~9.4 req/s cold capacity of the single smoke shard, so the
       unbatched column sheds and batch-8's amortization shows. *)
    rates = [ 24.0 ];
    as_counts = [ 1 ];
    base =
      {
        Fleet.Driver.default_config with
        seed;
        servers = 40;
        vms = 200;
        duration = Sim.Time.sec 10;
        drain = Sim.Time.sec 10;
        hot_vms = 32;
      };
  }

(* A full batch must be able to form in the queue, so depth grows with the
   batch bound; batch 1 keeps the baseline depth exactly. *)
let config_for sweep ~batch ~rate ~as_count =
  {
    sweep.base with
    Fleet.Driver.rate_per_s = rate;
    as_count;
    queue_depth = max sweep.base.Fleet.Driver.queue_depth (2 * batch);
    batch_max = batch;
    batch_window = (if batch <= 1 then 0 else Sim.Time.ms 100);
  }

let run ?(seed = 2015) ?(scale = Common.scale_of_env ()) () =
  let sweep, scale_name =
    match scale with
    | `Default -> (default_sweep ~seed, "default")
    | `Smoke -> (smoke_sweep ~seed, "smoke")
  in
  let rows =
    List.concat_map
      (fun batch ->
        List.concat_map
          (fun rate ->
            List.map
              (fun as_count ->
                let config = config_for sweep ~batch ~rate ~as_count in
                { batch; rate; as_count; r = Fleet.Driver.run config })
              sweep.as_counts)
          sweep.rates)
      sweep.batches
  in
  { seed; scale = scale_name; rows }

let top_rate rows = List.fold_left (fun acc r -> Float.max acc r.rate) 0.0 rows

(* Served throughput at the highest offered rate on one shard, per batch
   size — the acceptance criterion's number. *)
let scaling_at_top rows =
  let top = top_rate rows in
  List.filter (fun r -> r.rate = top && r.as_count = 1) rows
  |> List.sort (fun a b -> compare a.batch b.batch)

let print { seed; scale; rows } =
  Common.section
    (Printf.sprintf "Batch: Merkle-aggregated attestation (seed %d, %s sweep)" seed scale);
  Printf.printf
    "cost model: cold attestation %.0f ms; batched rounds amortize the quote —\n"
    Fleet.Driver.cold_attest_ms;
  List.iter
    (fun b ->
      if b > 1 then
        Printf.printf "  batch %2d: %6.0f ms/round = %5.1f ms/report end-to-end\n" b
          (Fleet.Driver.batch_attest_ms b)
          (Fleet.Driver.batch_attest_ms b /. float_of_int b))
    (List.sort_uniq compare (List.map (fun r -> r.batch) rows));
  Printf.printf "\n%5s %5s %3s | %7s %7s %7s | %7s %7s %7s | %6s %6s %5s\n" "batch" "rate"
    "AS" "off/s" "srv/s" "shed" "p50ms" "p95ms" "p99ms" "rounds" "meanB" "maxQ";
  List.iter
    (fun { batch; rate; as_count; r } ->
      Printf.printf
        "%5d %5.1f %3d | %7.2f %7.2f %7d | %7.0f %7.0f %7.0f | %6d %6.1f %5d\n" batch rate
        as_count r.Fleet.Driver.offered_rps r.Fleet.Driver.served_rps
        (r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic
       + r.Fleet.Driver.shed_recheck)
        r.Fleet.Driver.p50_ms r.Fleet.Driver.p95_ms r.Fleet.Driver.p99_ms
        r.Fleet.Driver.batches r.Fleet.Driver.mean_batch_size
        r.Fleet.Driver.max_queue_depth)
    rows;
  match scaling_at_top rows with
  | [] -> ()
  | ({ r = base; _ } :: _ as scaling) ->
      Printf.printf "\nAmortization at %.0f req/s offered (1 shard, cache off):\n"
        (top_rate rows);
      List.iter
        (fun { batch; r; _ } ->
          let speedup =
            if base.Fleet.Driver.served_rps > 0.0 then
              r.Fleet.Driver.served_rps /. base.Fleet.Driver.served_rps
            else 0.0
          in
          Printf.printf "  batch %2d: %6.2f served/s (%4.1fx)  %s\n" batch
            r.Fleet.Driver.served_rps speedup
            (Common.bar r.Fleet.Driver.served_rps))
        scaling

let row_to_json { batch; rate; as_count; r } =
  let cfg = r.Fleet.Driver.config in
  Json.Obj
    ([
      ("batch_max", Json.Int batch);
      ("batch_window_ms", Json.Float (Sim.Time.to_ms cfg.Fleet.Driver.batch_window));
      ("queue_depth", Json.Int cfg.Fleet.Driver.queue_depth);
      ("rate_per_s", Json.Float rate);
      ("as_count", Json.Int as_count);
      ("offered", Json.Int r.Fleet.Driver.offered);
      ("served", Json.Int r.Fleet.Driver.served);
      ("offered_rps", Json.Float r.Fleet.Driver.offered_rps);
      ("served_rps", Json.Float r.Fleet.Driver.served_rps);
      ("mean_ms", Json.Float r.Fleet.Driver.mean_ms);
      ("p50_ms", Json.Float r.Fleet.Driver.p50_ms);
      ("p95_ms", Json.Float r.Fleet.Driver.p95_ms);
      ("p99_ms", Json.Float r.Fleet.Driver.p99_ms);
      ( "shed",
        Json.Obj
          [
            ("customer", Json.Int r.Fleet.Driver.shed_customer);
            ("periodic", Json.Int r.Fleet.Driver.shed_periodic);
            ("recheck", Json.Int r.Fleet.Driver.shed_recheck);
            ( "total",
              Json.Int
                (r.Fleet.Driver.shed_customer + r.Fleet.Driver.shed_periodic
               + r.Fleet.Driver.shed_recheck) );
          ] );
      ("coalesced", Json.Int r.Fleet.Driver.coalesced);
      ("measurements", Json.Int r.Fleet.Driver.measurements);
      ("batch_rounds", Json.Int r.Fleet.Driver.batches);
      ("mean_batch_size", Json.Float r.Fleet.Driver.mean_batch_size);
      ("max_queue_depth", Json.Int r.Fleet.Driver.max_queue_depth);
      ("mean_queue_depth", Json.Float r.Fleet.Driver.mean_queue_depth);
     ]
    @ Fleet_exp.audit_fields r)

let to_json { seed; scale; rows } =
  let batches = List.sort_uniq compare (List.map (fun r -> r.batch) rows) in
  let speedups =
    match scaling_at_top rows with
    | [] -> []
    | { r = base; _ } :: _ as scaling ->
        List.map
          (fun { batch; r; _ } ->
            ( string_of_int batch,
              Json.Float
                (if base.Fleet.Driver.served_rps > 0.0 then
                   r.Fleet.Driver.served_rps /. base.Fleet.Driver.served_rps
                 else 0.0) ))
          scaling
  in
  Json.Obj
    [
      ("experiment", Json.Str "batch");
      ("seed", Json.Int seed);
      ("scale", Json.Str scale);
      ( "model",
        Json.Obj
          [
            ("cold_attest_ms", Json.Float Fleet.Driver.cold_attest_ms);
            ( "batch_attest_ms",
              Json.Obj
                (List.map
                   (fun b ->
                     (string_of_int b, Json.Float (Fleet.Driver.batch_attest_ms b)))
                   batches) );
          ] );
      ("served_rps_speedup_at_top_rate", Json.Obj speedups);
      ("rows", Json.List (List.map row_to_json rows));
    ]
