(* A small string-keyed LRU: hash table for lookup, intrusive doubly-linked
   list for recency order.  [find] promotes to most-recent; inserting past
   capacity evicts the least-recently-used entry.  Hit/miss counters feed
   the crypto bench and the memo's observability. *)

type 'a entry = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a entry option;  (** towards most recent *)
  mutable next : 'a entry option;  (** towards least recent *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable head : 'a entry option;  (** most recently used *)
  mutable tail : 'a entry option;  (** least recently used *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; tbl = Hashtbl.create 64; head = None; tail = None; hits = 0; misses = 0 }

let length t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e ->
      t.hits <- t.hits + 1;
      (match t.head with
      | Some h when h == e -> ()
      | _ ->
          unlink t e;
          push_front t e);
      Some e.value

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> (
      e.value <- value;
      match t.head with
      | Some h when h == e -> ()
      | _ ->
          unlink t e;
          push_front t e)
  | None ->
      if Hashtbl.length t.tbl >= t.capacity then begin
        match t.tail with
        | None -> ()
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.tbl lru.key
      end;
      let e = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key e;
      push_front t e

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0
