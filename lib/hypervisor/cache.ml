type line = { owner : string; tag : int }

(* 64 sets; misses are counted per 10 ms accounting window. *)
let nsets = 64
let window = Sim.Time.ms 10

type t = {
  engine : Sim.Engine.t;
  nways : int;
  sets_arr : line list array; (* each list: MRU first, length <= nways *)
  miss_bins : (string, (int, int) Hashtbl.t) Hashtbl.t; (* owner -> window idx -> count *)
  totals : (string, int) Hashtbl.t;
}

let create ~engine ?(ways = 8) () =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    engine;
    nways = ways;
    sets_arr = Array.make nsets [];
    miss_bins = Hashtbl.create 8;
    totals = Hashtbl.create 8;
  }

let ways t = t.nways

let check_set t set =
  if set < 0 || set >= nsets then invalid_arg "Cache: set index out of range"

let record_miss t owner =
  let idx = Sim.Engine.now t.engine / window in
  let bins =
    match Hashtbl.find_opt t.miss_bins owner with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 32 in
        Hashtbl.replace t.miss_bins owner b;
        b
  in
  Hashtbl.replace bins idx (1 + Option.value ~default:0 (Hashtbl.find_opt bins idx));
  Hashtbl.replace t.totals owner (1 + Option.value ~default:0 (Hashtbl.find_opt t.totals owner))

let access t ~owner ~set ~tag =
  check_set t set;
  let lines = t.sets_arr.(set) in
  let here l = String.equal l.owner owner && l.tag = tag in
  if List.exists here lines then begin
    (* Hit: move to MRU position. *)
    t.sets_arr.(set) <- { owner; tag } :: List.filter (fun l -> not (here l)) lines;
    false
  end
  else begin
    (* Miss: fill, evicting the LRU line if the set is full. *)
    record_miss t owner;
    let lines = if List.length lines >= t.nways then List.filteri (fun i _ -> i < t.nways - 1) lines else lines in
    t.sets_arr.(set) <- { owner; tag } :: lines;
    true
  end

let fill_set t ~owner ~set =
  for tag = 0 to t.nways - 1 do
    ignore (access t ~owner ~set ~tag : bool)
  done

let probe t ~owner ~sets =
  List.fold_left
    (fun acc set ->
      let misses = ref 0 in
      for tag = 0 to t.nways - 1 do
        if access t ~owner ~set ~tag then incr misses
      done;
      acc + !misses)
    0 sets

let misses t ~owner = Option.value ~default:0 (Hashtbl.find_opt t.totals owner)

let miss_windows t ~owner ~since =
  let now = Sim.Engine.now t.engine in
  let first = since / window in
  let last = now / window in
  let n = max 0 (last - first + 1) in
  match Hashtbl.find_opt t.miss_bins owner with
  | None -> Array.make n 0
  | Some bins -> Array.init n (fun i -> Option.value ~default:0 (Hashtbl.find_opt bins (first + i)))

let forget_owner t owner =
  Hashtbl.remove t.miss_bins owner;
  Hashtbl.remove t.totals owner;
  Array.iteri
    (fun i lines -> t.sets_arr.(i) <- List.filter (fun l -> not (String.equal l.owner owner)) lines)
    t.sets_arr
