(* Binary Merkle tree with domain-separated leaf/node hashes, built by the
   RFC 6962 recursive split: a span of two or more leaves splits at the
   largest power of two below its size.  This is the tree that pairs nodes
   level by level and promotes an odd last node unchanged, so the shape
   depends only on the leaf count and a promoted leaf simply gets a shorter
   proof.  One append-only tree value holds the leaf hashes and a memo of
   interior roots, so a batch hashes each leaf once and a log (lib/audit)
   serves proofs against any historical size without rehashing. *)

let leaf_hash data = Sha256.digest_list [ "merkle-leaf|"; data ]
let node_hash l r = Sha256.digest_list [ "merkle-node|"; l; r ]

(* Which side of the pair the recorded sibling hash sits on. *)
type side = Sibling_left | Sibling_right

type proof = (side * string) list (* leaf -> root order *)

let empty_root = Sha256.digest "merkle-empty|"

(* Largest power of two strictly below [n]; [n >= 2]. *)
let k_split n =
  let rec go k = if 2 * k < n then go (2 * k) else k in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* The inclusion path of leaf [i] in the tree over the first [size] leaves,
   given the subtree roots [sub lo hi] over leaves [lo, hi). *)
let path ~sub ~size i =
  let rec go lo hi =
    if hi - lo <= 1 then []
    else begin
      let k = k_split (hi - lo) in
      if i < lo + k then go lo (lo + k) @ [ (Sibling_right, sub (lo + k) hi) ]
      else go (lo + k) hi @ [ (Sibling_left, sub lo (lo + k)) ]
    end
  in
  go 0 size

(* Leaf hashes, and the interior root over [lo, hi) for every span already
   computed.  Leaves are only appended, so a span with [hi <= size] never
   changes and the memo is never invalidated: an append adds at most
   O(log n) interior nodes along the right spine. *)
type tree = {
  mutable hashes : string array;
  mutable size : int;
  memo : (int * int, string) Hashtbl.t;
}

let of_leaves leaves =
  let hashes = Array.of_list (List.map leaf_hash leaves) in
  let size = Array.length hashes in
  { hashes; size; memo = Hashtbl.create size }

let add t data =
  if t.size = Array.length t.hashes then begin
    let hashes = Array.make (max 16 (2 * t.size)) "" in
    Array.blit t.hashes 0 hashes 0 t.size;
    t.hashes <- hashes
  end;
  t.hashes.(t.size) <- leaf_hash data;
  t.size <- t.size + 1

let size t = t.size

let rec sub t lo hi =
  if hi - lo = 1 then t.hashes.(lo)
  else begin
    match Hashtbl.find_opt t.memo (lo, hi) with
    | Some h -> h
    | None ->
        let k = k_split (hi - lo) in
        let h = node_hash (sub t lo (lo + k)) (sub t (lo + k) hi) in
        Hashtbl.add t.memo (lo, hi) h;
        h
  end

let root_at t n =
  if n < 0 || n > t.size then invalid_arg "Merkle.root_at: size out of range";
  if n = 0 then empty_root else sub t 0 n

let inclusion t ~size i =
  if size <= 0 || size > t.size then invalid_arg "Merkle.inclusion: size out of range";
  if i < 0 || i >= size then invalid_arg "Merkle.inclusion: leaf index out of range";
  path ~sub:(sub t) ~size i

let nonempty leaves =
  let t = of_leaves leaves in
  if t.size = 0 then invalid_arg "Merkle: no leaves";
  t

let root leaves =
  let t = nonempty leaves in
  sub t 0 t.size

let proof leaves i =
  let t = nonempty leaves in
  if i < 0 || i >= t.size then invalid_arg "Merkle.proof: leaf index out of range";
  path ~sub:(sub t) ~size:t.size i

let verify ~root:expected ~leaf p =
  let h =
    List.fold_left
      (fun h (side, sib) ->
        match side with
        | Sibling_left -> node_hash sib h
        | Sibling_right -> node_hash h sib)
      (leaf_hash leaf) p
  in
  String.equal h expected

let proof_length = List.length

(* A path's sides determine the leaf position uniquely, so comparing them
   with the sides of leaf [index]'s path binds the claimed index to the
   proof. *)
let verify_at ~root ~leaf ~index ~size p =
  index >= 0 && index < size
  && List.map fst p = List.map fst (path ~sub:(fun _ _ -> "") ~size index)
  && verify ~root ~leaf p

let node_count n =
  if n <= 0 then 0
  else begin
    (* n leaf hashes, plus one node hash per combined pair at each level. *)
    let rec interior n acc = if n <= 1 then acc else interior ((n + 1) / 2) (acc + (n / 2)) in
    n + interior n 0
  end

let max_proof_length n =
  if n <= 1 then 0
  else begin
    let rec depth n acc = if n <= 1 then acc else depth ((n + 1) / 2) (acc + 1) in
    depth n 0
  end

let consistency t ~old_size ~size =
  if old_size < 0 || old_size > size then invalid_arg "Merkle.consistency: sizes out of order";
  if size > t.size then invalid_arg "Merkle.consistency: size out of range";
  if old_size = 0 || old_size = size then []
  else begin
    (* RFC 6962 SUBPROOF: [m] old leaves inside the subtree [lo, hi); the
       flag records whether that subtree's root is derivable by the old
       tree's owner (true only along the original spine). *)
    let rec subproof lo hi m flag =
      if m = hi - lo then if flag then [] else [ sub t lo hi ]
      else begin
        let k = k_split (hi - lo) in
        if m <= k then subproof lo (lo + k) m flag @ [ sub t (lo + k) hi ]
        else subproof (lo + k) hi (m - k) false @ [ sub t lo (lo + k) ]
      end
    in
    subproof 0 size old_size true
  end

(* RFC 6962 section 2.1.4.2, with [node_hash] as HASH(0x01 || l || r). *)
let verify_consistency ~old_size ~old_root ~size ~root p =
  if old_size < 0 || size < old_size then false
  else if old_size = 0 then p = []
  else if old_size = size then p = [] && String.equal old_root root
  else begin
    let path = if is_pow2 old_size then old_root :: p else p in
    match path with
    | [] -> false
    | seed :: rest ->
        let fn = ref (old_size - 1) and sn = ref (size - 1) in
        while !fn land 1 = 1 do
          fn := !fn lsr 1;
          sn := !sn lsr 1
        done;
        let fr = ref seed and sr = ref seed in
        let ok = ref true in
        List.iter
          (fun c ->
            if !ok then begin
              if !sn = 0 then ok := false
              else begin
                (if !fn land 1 = 1 || !fn = !sn then begin
                   fr := node_hash c !fr;
                   sr := node_hash c !sr;
                   if !fn land 1 = 0 then
                     while !fn <> 0 && !fn land 1 = 0 do
                       fn := !fn lsr 1;
                       sn := !sn lsr 1
                     done
                 end
                 else sr := node_hash !sr c);
                fn := !fn lsr 1;
                sn := !sn lsr 1
              end
            end)
          rest;
        !ok && String.equal !fr old_root && String.equal !sr root && !sn = 0
  end

let encode e p =
  Wire.Codec.Enc.list e
    (fun (side, hash) ->
      Wire.Codec.Enc.u8 e (match side with Sibling_left -> 0 | Sibling_right -> 1);
      Wire.Codec.Enc.str e hash)
    p

let decode d =
  Wire.Codec.Dec.list d (fun d ->
      let side =
        match Wire.Codec.Dec.u8 d with
        | 0 -> Sibling_left
        | 1 -> Sibling_right
        | _ -> raise (Wire.Codec.Error "bad Merkle proof side")
      in
      let hash = Wire.Codec.Dec.str d in
      (side, hash))
