type t = {
  log_id : string;
  key : Crypto.Rsa.secret;
  clock : unit -> Sim.Time.t;
  mutable entries : string array;
  mutable hashes : string array; (* leaf hashes, same length as [entries] *)
  mutable size : int;
  (* Interior-node memo keyed by [(lo, hi)].  Entries are append-only, so a
     subtree over [lo, hi) with [hi <= size] never changes and the memo is
     never invalidated; each append adds at most O(log n) new interior
     nodes along the right spine. *)
  memo : (int * int, string) Hashtbl.t;
  mutable latest : Sth.t option;
  mutable appends : int;
  mutable checkpoints : int;
  mutable proofs_served : int;
}

let create ~log_id ~key ?(clock = fun () -> Sim.Time.zero) () =
  {
    log_id;
    key;
    clock;
    entries = Array.make 16 "";
    hashes = Array.make 16 "";
    size = 0;
    memo = Hashtbl.create 64;
    latest = None;
    appends = 0;
    checkpoints = 0;
    proofs_served = 0;
  }

let log_id t = t.log_id
let public_key t = t.key.Crypto.Rsa.pub
let size t = t.size
let appends t = t.appends
let checkpoints t = t.checkpoints
let proofs_served t = t.proofs_served

let grow t =
  if t.size = Array.length t.entries then begin
    let cap = 2 * Array.length t.entries in
    let entries = Array.make cap "" and hashes = Array.make cap "" in
    Array.blit t.entries 0 entries 0 t.size;
    Array.blit t.hashes 0 hashes 0 t.size;
    t.entries <- entries;
    t.hashes <- hashes
  end

let append t entry =
  grow t;
  let index = t.size in
  t.entries.(index) <- entry;
  t.hashes.(index) <- Crypto.Merkle.leaf_hash entry;
  t.size <- index + 1;
  t.appends <- t.appends + 1;
  index

let entry t i = if i >= 0 && i < t.size then Some t.entries.(i) else None

let rec subroot t lo hi =
  if hi - lo = 1 then t.hashes.(lo)
  else begin
    match Hashtbl.find_opt t.memo (lo, hi) with
    | Some h -> h
    | None ->
        let k =
          let rec go k = if 2 * k < hi - lo then go (2 * k) else k in
          go 1
        in
        let h = Crypto.Merkle.node_hash (subroot t lo (lo + k)) (subroot t (lo + k) hi) in
        Hashtbl.add t.memo (lo, hi) h;
        h
  end

let root_at t n =
  if n < 0 || n > t.size then invalid_arg "Audit.Log.root_at: size out of range";
  if n = 0 then Crypto.Merkle.empty_root else subroot t 0 n

let root t = root_at t t.size

let sign_head t =
  Sth.sign t.key ~log_id:t.log_id ~size:t.size ~root:(root t) ~at:(t.clock ())

let checkpoint t =
  let sth = sign_head t in
  t.latest <- Some sth;
  t.checkpoints <- t.checkpoints + 1;
  sth

let latest_sth t = t.latest

let inclusion t ~size i =
  if size > t.size then invalid_arg "Audit.Log.inclusion: size beyond log";
  t.proofs_served <- t.proofs_served + 1;
  Crypto.Merkle.inclusion_with ~sub:(subroot t) ~size i

let consistency t ~old_size ~size =
  if size > t.size then invalid_arg "Audit.Log.consistency: size beyond log";
  t.proofs_served <- t.proofs_served + 1;
  Crypto.Merkle.consistency_with ~sub:(subroot t) ~old_size ~size

let append_with_receipt t item =
  let index = append t item in
  let sth = sign_head t in
  t.latest <- Some sth;
  t.proofs_served <- t.proofs_served + 1;
  let proof = Crypto.Merkle.inclusion_with ~sub:(subroot t) ~size:t.size index in
  { Receipt.index; sth; proof }
