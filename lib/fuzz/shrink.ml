let triggers ?(bug = Replay.No_bug) ?oracle scenario =
  let violations = (Replay.run ~bug scenario).Replay.violations in
  match oracle with
  | None -> violations <> []
  | Some name -> List.exists (fun v -> v.Oracle.oracle = name) violations

(* Split [lst] into [n] contiguous chunks of near-equal size. *)
let split_into n lst =
  let len = List.length lst in
  let base = len / n and rem = len mod n in
  let take k l =
    let rec go k l front =
      if k = 0 then (List.rev front, l)
      else
        match l with
        | [] -> (List.rev front, [])
        | x :: tl -> go (k - 1) tl (x :: front)
    in
    go k l []
  in
  let rec go i rest acc =
    if i = n then List.rev acc
    else
      let size = base + if i < rem then 1 else 0 in
      let chunk, rest = take size rest in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 lst []

(* Replays one minimisation may spend. *)
let max_replays = 500

let minimize ?(bug = Replay.No_bug) ?oracle scenario =
  let replays = ref 0 in
  let fails ops =
    if !replays >= max_replays then false
    else begin
      incr replays;
      triggers ~bug ?oracle { scenario with Op.ops }
    end
  in
  let rec ddmin ops n =
    let len = List.length ops in
    if len <= 1 || n > len || !replays >= max_replays then ops
    else begin
      let chunks = split_into n ops in
      match List.find_opt fails chunks with
      | Some chunk -> ddmin chunk 2
      | None -> (
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) chunks))
              chunks
          in
          match List.find_opt fails complements with
          | Some rest -> ddmin rest (max (n - 1) 2)
          | None -> if n < len then ddmin ops (min len (2 * n)) else ops)
    end
  in
  if not (fails scenario.Op.ops) then (scenario, !replays)
  else
    let ops = ddmin scenario.Op.ops 2 in
    ({ scenario with Op.ops }, !replays)
