type t = {
  log_id : string;
  key : Crypto.Rsa.secret;
  clock : unit -> Sim.Time.t;
  mutable entries : string array; (* the first [size tree] are live *)
  tree : Crypto.Merkle.tree;
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
    tree = Crypto.Merkle.of_leaves [];
    latest = None;
    appends = 0;
    checkpoints = 0;
    proofs_served = 0;
  }

let log_id t = t.log_id
let public_key t = t.key.Crypto.Rsa.pub
let size t = Crypto.Merkle.size t.tree
let appends t = t.appends
let checkpoints t = t.checkpoints
let proofs_served t = t.proofs_served

let append t entry =
  let index = size t in
  if index = Array.length t.entries then begin
    let entries = Array.make (2 * index) "" in
    Array.blit t.entries 0 entries 0 index;
    t.entries <- entries
  end;
  t.entries.(index) <- entry;
  Crypto.Merkle.add t.tree entry;
  t.appends <- t.appends + 1;
  index

let entry t i = if i >= 0 && i < size t then Some t.entries.(i) else None

let root_at t n = Crypto.Merkle.root_at t.tree n

let root t = root_at t (size t)

let sign_head t =
  Sth.sign t.key ~log_id:t.log_id ~size:(size t) ~root:(root t) ~at:(t.clock ())

let checkpoint t =
  let sth = sign_head t in
  t.latest <- Some sth;
  t.checkpoints <- t.checkpoints + 1;
  sth

let latest_sth t = t.latest

let inclusion t ~size:n i =
  if n > size t then invalid_arg "Audit.Log.inclusion: size beyond log";
  t.proofs_served <- t.proofs_served + 1;
  Crypto.Merkle.inclusion t.tree ~size:n i

let consistency t ~old_size ~size:n =
  if n > size t then invalid_arg "Audit.Log.consistency: size beyond log";
  t.proofs_served <- t.proofs_served + 1;
  Crypto.Merkle.consistency t.tree ~old_size ~size:n

let append_with_receipt t item =
  let index = append t item in
  let sth = sign_head t in
  t.latest <- Some sth;
  t.proofs_served <- t.proofs_served + 1;
  let proof = Crypto.Merkle.inclusion t.tree ~size:(size t) index in
  { Receipt.index; sth; proof }
