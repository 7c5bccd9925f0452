(* Binary Merkle tree with domain-separated leaf/node hashes, built by the
   RFC 6962 recursive split: a span of two or more leaves splits at the
   largest power of two below its size.  This is the tree that pairs nodes
   level by level and promotes an odd last node unchanged, so the shape
   depends only on the leaf count and a promoted leaf simply gets a shorter
   proof.  Every function below takes a subtree-root oracle [sub lo hi]
   (the root over leaves [lo, hi)) or builds one from a leaf list, so
   incremental logs (lib/audit) can memoize interior hashes across
   appends and serve proofs against any historical tree size. *)

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

let inclusion_with ~sub ~size i =
  if size <= 0 then invalid_arg "Merkle.inclusion_with: empty tree";
  if i < 0 || i >= size then invalid_arg "Merkle.inclusion_with: leaf index out of range";
  let rec path lo hi i =
    if hi - lo <= 1 then []
    else begin
      let k = k_split (hi - lo) in
      if i < lo + k then path lo (lo + k) i @ [ (Sibling_right, sub (lo + k) hi) ]
      else path (lo + k) hi i @ [ (Sibling_left, sub lo (lo + k)) ]
    end
  in
  path 0 size i

(* The subtree-root oracle over a list of leaf data, and the leaf count. *)
let sub_of_leaves leaves =
  let hashes = Array.of_list (List.map leaf_hash leaves) in
  let rec sub lo hi =
    if hi - lo = 1 then hashes.(lo)
    else begin
      let k = k_split (hi - lo) in
      node_hash (sub lo (lo + k)) (sub (lo + k) hi)
    end
  in
  (sub, Array.length hashes)

let nonempty leaves =
  let sub, n = sub_of_leaves leaves in
  if n = 0 then invalid_arg "Merkle: no leaves";
  (sub, n)

let root leaves =
  let sub, n = nonempty leaves in
  sub 0 n

let proof leaves i =
  let sub, n = nonempty leaves in
  if i < 0 || i >= n then invalid_arg "Merkle.proof: leaf index out of range";
  inclusion_with ~sub ~size:n i

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
  && List.map fst p = List.map fst (inclusion_with ~sub:(fun _ _ -> "") ~size index)
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

let consistency_with ~sub ~old_size ~size =
  if old_size < 0 || old_size > size then
    invalid_arg "Merkle.consistency_with: sizes out of order";
  if old_size = 0 || old_size = size then []
  else begin
    (* RFC 6962 SUBPROOF: [m] old leaves inside the subtree [lo, hi); the
       flag records whether that subtree's root is derivable by the old
       tree's owner (true only along the original spine). *)
    let rec subproof lo hi m flag =
      if m = hi - lo then if flag then [] else [ sub lo hi ]
      else begin
        let k = k_split (hi - lo) in
        if m <= k then subproof lo (lo + k) m flag @ [ sub (lo + k) hi ]
        else subproof (lo + k) hi (m - k) false @ [ sub lo (lo + k) ]
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

(* List-of-leaves conveniences (tests, small verifiers). *)

let root_prefix leaves ~size =
  let sub, n = sub_of_leaves leaves in
  if size < 0 || size > n then invalid_arg "Merkle.root_prefix: size out of range";
  if size = 0 then empty_root else sub 0 size

let inclusion_prefix leaves ~size i =
  let sub, n = sub_of_leaves leaves in
  if size > n then invalid_arg "Merkle.inclusion_prefix: size out of range";
  inclusion_with ~sub ~size i

let consistency leaves ~old_size =
  let sub, n = sub_of_leaves leaves in
  consistency_with ~sub ~old_size ~size:n

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
