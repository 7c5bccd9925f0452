type entry = { report : Report.t; expires : Sim.Time.t }

type stats = { hits : int; misses : int; stores : int; invalidations : int }

type t = {
  clock : unit -> Sim.Time.t;
  table : (string * string, entry) Hashtbl.t;
  mutable ttl : Sim.Time.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable invalidations : int;
}

let create ?(ttl = 0) ~clock () =
  {
    clock;
    table = Hashtbl.create 64;
    ttl;
    hits = 0;
    misses = 0;
    stores = 0;
    invalidations = 0;
  }

let set_ttl t ttl = t.ttl <- max 0 ttl
let enabled t = t.ttl > 0

let key ~vid ~property = (vid, Property.to_string property)

let find t ~vid ~property =
  if not (enabled t) then None
  else begin
    let k = key ~vid ~property in
    match Hashtbl.find_opt t.table k with
    | Some e when e.expires > t.clock () ->
        t.hits <- t.hits + 1;
        Some e.report
    | Some _ ->
        Hashtbl.remove t.table k;
        t.misses <- t.misses + 1;
        None
    | None ->
        t.misses <- t.misses + 1;
        None
  end

let store t (report : Report.t) =
  if enabled t && Report.is_healthy report then begin
    Hashtbl.replace t.table
      (key ~vid:report.Report.vid ~property:report.Report.property)
      { report; expires = t.clock () + t.ttl };
    t.stores <- t.stores + 1;
    true
  end
  else false

let invalidate t ~vid ~property =
  let k = key ~vid ~property in
  if Hashtbl.mem t.table k then begin
    Hashtbl.remove t.table k;
    t.invalidations <- t.invalidations + 1;
    true
  end
  else false

let invalidate_vm t ~vid =
  let doomed =
    Hashtbl.fold (fun (v, p) _ acc -> if String.equal v vid then (v, p) :: acc else acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  let n = List.length doomed in
  t.invalidations <- t.invalidations + n;
  n

let size t = Hashtbl.length t.table

let stats t =
  { hits = t.hits; misses = t.misses; stores = t.stores; invalidations = t.invalidations }
