(* Naturals as little-endian arrays of 26-bit limbs.  With 26-bit limbs a
   limb product fits in 52 bits, leaving 10 bits of headroom for carries in
   the schoolbook and Montgomery inner loops on a 63-bit native int. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array (* normalized: no trailing zero limbs; zero = [||] *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec go n acc = if n = 0 then List.rev acc else go (n lsr limb_bits) ((n land limb_mask) :: acc) in
  Array.of_list (go n [])

let to_int (a : t) =
  (* Fits iff no bit at position >= 62 is set: a non-negative OCaml int
     holds up to 2^62 - 1.  A limb is only or-ed in once it is known not
     to reach bit 62, so the accumulator can never truncate or wrap. *)
  let ok = ref true in
  let acc = ref 0 in
  Array.iteri
    (fun i limb ->
      let shift = i * limb_bits in
      if shift >= 62 then begin if limb <> 0 then ok := false end
      else if shift + limb_bits > 62 && limb lsr (62 - shift) <> 0 then ok := false
      else acc := !acc lor (limb lsl shift))
    a;
  if !ok then Some !acc else None

let is_zero (a : t) = Array.length a = 0
let is_odd (a : t) = Array.length a > 0 && a.(0) land 1 = 1

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_mask + 1;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land limb_mask;
        carry := cur lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

let divmod_small (a : t) d =
  if d <= 0 then invalid_arg "Bignum.divmod_small: divisor must be positive";
  if d > limb_mask then invalid_arg "Bignum.divmod_small: divisor too large";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

(* Shift-and-subtract long division.  O(bits(a)) iterations over limb
   arrays; plenty fast for the <=2048-bit operands RSA produces, and far
   less error-prone than Knuth's algorithm D. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else begin
    let c = compare a b in
    if c < 0 then (zero, a)
    else if c = 0 then (one, zero)
    else begin
      let shift = bit_length a - bit_length b in
      let q_bits = Array.make ((shift / limb_bits) + 1) 0 in
      let rem = ref a in
      (* One shifted divisor, walked right a bit per step: shifting b from
         scratch at every position costs a fresh O(limbs) array each
         iteration and made the loop quadratic in allocation. *)
      let candidate = ref (shift_left b shift) in
      for i = shift downto 0 do
        if compare !candidate !rem <= 0 then begin
          rem := sub !rem !candidate;
          q_bits.(i / limb_bits) <- q_bits.(i / limb_bits) lor (1 lsl (i mod limb_bits))
        end;
        if i > 0 then candidate := shift_right !candidate 1
      done;
      (normalize q_bits, !rem)
    end
  end

let rem a b = snd (divmod a b)

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Extended Euclid over a small signed layer, for the modular inverse. *)
type signed = { neg : bool; mag : t }

let s_of t = { neg = false; mag = t }

let s_sub x y =
  match (x.neg, y.neg) with
  | false, false -> if compare x.mag y.mag >= 0 then { neg = false; mag = sub x.mag y.mag } else { neg = true; mag = sub y.mag x.mag }
  | true, true -> if compare y.mag x.mag >= 0 then { neg = false; mag = sub y.mag x.mag } else { neg = true; mag = sub x.mag y.mag }
  | false, true -> { neg = false; mag = add x.mag y.mag }
  | true, false -> { neg = not (is_zero (add x.mag y.mag)); mag = add x.mag y.mag }

let s_mul_nat x (n : t) = { neg = x.neg && not (is_zero (mul x.mag n)); mag = mul x.mag n }

let mod_inverse a m =
  if is_zero m then invalid_arg "Bignum.mod_inverse: zero modulus";
  let a = rem a m in
  if is_zero a then None
  else begin
    (* Invariants: old_r = old_s*a (mod m), r = s*a (mod m). *)
    let rec go old_r r old_s s =
      if is_zero r then (old_r, old_s)
      else begin
        let q, rr = divmod old_r r in
        go r rr s (s_sub old_s (s_mul_nat s q))
      end
    in
    let g, x = go a m (s_of one) (s_of zero) in
    if not (equal g one) then None
    else begin
      let v = rem x.mag m in
      if x.neg && not (is_zero v) then Some (sub m v) else Some v
    end
  end

(* --- Montgomery arithmetic (odd modulus) ------------------------------ *)

(* The modulus is carried as the normalized [t] it arrived as: the final
   conditional subtraction compares and subtracts it directly, instead of
   re-normalizing a fresh copy of the limb array on every multiplication
   (two array copies per mont_mul on the old hot path). *)
type mont = { m : t; k : int; n0 : int; r2 : t }

(* -m^-1 mod 2^26 by Newton iteration: x <- x * (2 - m0 * x). *)
let mont_n0 m0 =
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * (2 - (m0 * !x)) land limb_mask
  done;
  (limb_mask + 1 - !x) land limb_mask

let mont_init (m : t) =
  let k = Array.length m in
  let r = shift_left one (2 * k * limb_bits) in
  let r2 = rem r m in
  { m; k; n0 = mont_n0 m.(0); r2 }

(* CIOS Montgomery multiplication over fixed k-limb arrays: dst <- a*b*R^-1
   mod m, with [a], [b] and [dst] all exactly k limbs ([dst] may alias
   either input) and [t] a caller-owned (k+2)-limb scratch.  Keeping every
   operand at width k inside an exponentiation loop removes the per-call
   bounds checks, normalizations and allocations of the general entry
   point below. *)
let mont_mul_into ctx dst (a : int array) (b : int array) (t : int array) =
  let k = ctx.k in
  let m = (ctx.m :> int array) in
  let n0 = ctx.n0 in
  Array.fill t 0 (k + 2) 0;
  (* Unsafe accesses: every index below is bounded by construction — [a],
     [b], [m] and [dst] are exactly k limbs, [t] is k+2, and the loop
     variables range over 0..k-1 (so j-1, k and k+1 stay in range). *)
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    (* t <- t + ai * b *)
    let carry = ref 0 in
    for j = 0 to k - 1 do
      let cur = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !carry in
      Array.unsafe_set t j (cur land limb_mask);
      carry := cur lsr limb_bits
    done;
    let cur = Array.unsafe_get t k + !carry in
    Array.unsafe_set t k (cur land limb_mask);
    Array.unsafe_set t (k + 1) (Array.unsafe_get t (k + 1) + (cur lsr limb_bits));
    (* reduce one limb *)
    let u = Array.unsafe_get t 0 * n0 land limb_mask in
    let cur = Array.unsafe_get t 0 + (u * Array.unsafe_get m 0) in
    let carry = ref (cur lsr limb_bits) in
    for j = 1 to k - 1 do
      let cur = Array.unsafe_get t j + (u * Array.unsafe_get m j) + !carry in
      Array.unsafe_set t (j - 1) (cur land limb_mask);
      carry := cur lsr limb_bits
    done;
    let cur = Array.unsafe_get t k + !carry in
    Array.unsafe_set t (k - 1) (cur land limb_mask);
    Array.unsafe_set t k (Array.unsafe_get t (k + 1) + (cur lsr limb_bits));
    Array.unsafe_set t (k + 1) 0
  done;
  (* t.(0..k) < 2m with t.(k) at most 1 (m's top limb is nonzero);
     conditionally subtract m once. *)
  let ge =
    t.(k) <> 0
    ||
    let rec cmp j = j < 0 || (if t.(j) <> m.(j) then t.(j) > m.(j) else cmp (j - 1)) in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = Array.unsafe_get t j - Array.unsafe_get m j - !borrow in
      if d < 0 then begin
        Array.unsafe_set dst j (d + limb_mask + 1);
        borrow := 1
      end
      else begin
        Array.unsafe_set dst j d;
        borrow := 0
      end
    done
  end
  else Array.blit t 0 dst 0 k

(* Montgomery squaring: dst <- a*a*R^-1 mod m with [a] and [dst] exactly k
   limbs (dst may alias a) and [t] a caller-owned (2k+1)-limb scratch.
   Squaring computes each cross product a_i*a_j (i<j) once and doubles the
   accumulator, then adds the diagonal a_i^2 terms — about 1.5k^2 limb
   multiplies against CIOS's 2k^2.  Exponentiation is almost all squarings
   (~n of them versus ~n/5 window multiplies), so the hot path gets most of
   that 25%. *)
let mont_sqr_into ctx dst (a : int array) (t : int array) =
  let k = ctx.k in
  let m = (ctx.m :> int array) in
  let n0 = ctx.n0 in
  Array.fill t 0 ((2 * k) + 1) 0;
  (* cross products, each unordered pair once *)
  for i = 0 to k - 2 do
    let ai = Array.unsafe_get a i in
    let carry = ref 0 in
    for j = i + 1 to k - 1 do
      let cur = Array.unsafe_get t (i + j) + (ai * Array.unsafe_get a j) + !carry in
      Array.unsafe_set t (i + j) (cur land limb_mask);
      carry := cur lsr limb_bits
    done;
    (* i+k <= 2k-2 has not been written yet, so this cannot overflow the
       10-bit headroom *)
    Array.unsafe_set t (i + k) (Array.unsafe_get t (i + k) + !carry)
  done;
  (* double the cross products *)
  let carry = ref 0 in
  for idx = 0 to (2 * k) - 1 do
    let cur = (Array.unsafe_get t idx lsl 1) + !carry in
    Array.unsafe_set t idx (cur land limb_mask);
    carry := cur lsr limb_bits
  done;
  t.(2 * k) <- !carry;
  (* diagonal terms a_i^2 at even positions *)
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    let cur = Array.unsafe_get t (2 * i) + (ai * ai) + !carry in
    Array.unsafe_set t (2 * i) (cur land limb_mask);
    let cur2 = Array.unsafe_get t ((2 * i) + 1) + (cur lsr limb_bits) in
    Array.unsafe_set t ((2 * i) + 1) (cur2 land limb_mask);
    carry := cur2 lsr limb_bits
  done;
  t.(2 * k) <- t.(2 * k) + !carry;
  (* Montgomery reduction of the 2k-limb product (REDC) *)
  for i = 0 to k - 1 do
    let u = Array.unsafe_get t i * n0 land limb_mask in
    let carry = ref 0 in
    for j = 0 to k - 1 do
      let cur = Array.unsafe_get t (i + j) + (u * Array.unsafe_get m j) + !carry in
      Array.unsafe_set t (i + j) (cur land limb_mask);
      carry := cur lsr limb_bits
    done;
    let jj = ref (i + k) in
    while !carry <> 0 do
      let cur = t.(!jj) + !carry in
      t.(!jj) <- cur land limb_mask;
      carry := cur lsr limb_bits;
      incr jj
    done
  done;
  (* result is t.(k .. 2k), < 2m with the top limb at most 1 *)
  let ge =
    t.(2 * k) <> 0
    ||
    let rec cmp j = j < 0 || (if t.(k + j) <> m.(j) then t.(k + j) > m.(j) else cmp (j - 1)) in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = Array.unsafe_get t (k + j) - Array.unsafe_get m j - !borrow in
      if d < 0 then begin
        Array.unsafe_set dst j (d + limb_mask + 1);
        borrow := 1
      end
      else begin
        Array.unsafe_set dst j d;
        borrow := 0
      end
    done
  end
  else Array.blit t k dst 0 k

let mont_pad ctx (v : t) =
  let r = Array.make ctx.k 0 in
  Array.blit (v :> int array) 0 r 0 (Array.length v);
  r

(* General-entry Montgomery multiplication on normalized values. *)
let mont_mul ctx (a : t) (b : t) : t =
  let dst = Array.make ctx.k 0 in
  mont_mul_into ctx dst (mont_pad ctx a) (mont_pad ctx b) (Array.make (ctx.k + 2) 0);
  normalize dst

(* Modular exponentiation with a width-4 sliding window over a table of
   the odd powers base^1, base^3, ..., base^15 (all in the Montgomery
   domain).  Versus bit-at-a-time square-and-multiply this trades ~n/2
   multiplies for ~n/5 plus eight table entries — ~20% fewer mont_muls on
   a random full-width exponent — and the fixed-width kernel above keeps
   every step allocation-free.  [~window:false] keeps the plain
   square-and-multiply ladder (the pre-window path, kept for the crypto
   bench's ablation rows); short exponents such as 65537 skip the table,
   which would cost more than it saves. *)
let mod_pow_mont ~window ~base ~exp ~modulus =
  let ctx = mont_init modulus in
  let k = ctx.k in
  let scratch = Array.make (k + 2) 0 in
  let scratch2 = Array.make ((2 * k) + 1) 0 in
  let mm dst a b = mont_mul_into ctx dst a b scratch in
  let ms dst a = mont_sqr_into ctx dst a scratch2 in
  let base_m = mont_pad ctx (mont_mul ctx (rem base modulus) ctx.r2) in
  let acc = mont_pad ctx (mont_mul ctx one ctx.r2) (* R mod m = Montgomery one *) in
  let eb = bit_length exp in
  if (not window) || eb <= 16 then
    for i = eb - 1 downto 0 do
      ms acc acc;
      if test_bit exp i then mm acc acc base_m
    done
  else begin
    let sq = Array.make k 0 in
    ms sq base_m;
    let tbl = Array.init 8 (fun _ -> Array.make k 0) in
    Array.blit base_m 0 tbl.(0) 0 k;
    for i = 1 to 7 do
      mm tbl.(i) tbl.(i - 1) sq
    done;
    let i = ref (eb - 1) in
    while !i >= 0 do
      if not (test_bit exp !i) then begin
        ms acc acc;
        decr i
      end
      else begin
        (* Greedy window [!i .. j]: at most 4 bits, shrunk so its lowest
           bit is set — the window value w is odd and tbl.((w-1)/2) holds
           base^w. *)
        let j = ref (max 0 (!i - 3)) in
        while not (test_bit exp !j) do
          incr j
        done;
        let w = ref 0 in
        for b = !i downto !j do
          w := (!w lsl 1) lor (if test_bit exp b then 1 else 0)
        done;
        for _ = !j to !i do
          ms acc acc
        done;
        mm acc acc tbl.(!w lsr 1);
        i := !j - 1
      end
    done
  end;
  (* Leave the Montgomery domain: one multiplication by plain 1. *)
  mm acc acc (mont_pad ctx one);
  normalize acc

let mod_pow_generic ~base ~exp ~modulus =
  let base = ref (rem base modulus) in
  let acc = ref (rem one modulus) in
  for i = 0 to bit_length exp - 1 do
    if test_bit exp i then acc := rem (mul !acc !base) modulus;
    if i < bit_length exp - 1 then base := rem (mul !base !base) modulus
  done;
  !acc

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_zero exp then rem one modulus
  else if is_odd modulus then mod_pow_mont ~window:true ~base ~exp ~modulus
  else mod_pow_generic ~base ~exp ~modulus

(* --- Byte / hex conversions ------------------------------------------- *)

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) s;
  !acc

let to_bytes_be ?width (a : t) =
  let nbytes = (bit_length a + 7) / 8 in
  let nbytes = max nbytes 1 in
  let out_len =
    match width with
    | None -> nbytes
    | Some w ->
        if w < nbytes then invalid_arg "Bignum.to_bytes_be: width too small";
        w
  in
  let b = Bytes.make out_len '\x00' in
  (* Each output byte straddles at most two limbs; extract it directly
     instead of dividing the whole number by 256 once per byte. *)
  let arr = (a :> int array) in
  let la = Array.length arr in
  for j = 0 to nbytes - 1 do
    let bit = 8 * j in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let v = if limb < la then arr.(limb) lsr off else 0 in
    let v =
      if off + 8 > limb_bits && limb + 1 < la then
        v lor (arr.(limb + 1) lsl (limb_bits - off))
      else v
    in
    Bytes.set b (out_len - 1 - j) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string b

let of_hex h = of_bytes_be (Hexs.decode (if String.length h mod 2 = 1 then "0" ^ h else h))
let to_hex a = Hexs.encode (to_bytes_be a)

(* --- Randomness and primality ----------------------------------------- *)

let random_bits drbg bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let s = Bytes.of_string (Drbg.random_bytes drbg nbytes) in
    let extra = (nbytes * 8) - bits in
    if extra > 0 then
      Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) land (0xff lsr extra)));
    of_bytes_be (Bytes.unsafe_to_string s)
  end

let random_below drbg bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length bound in
  let rec go () =
    let v = random_bits drbg bits in
    if compare v bound < 0 then v else go ()
  in
  go ()

let small_primes =
  (* Primes below 1000, for fast trial division. *)
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = 999 downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  !acc

let miller_rabin_round drbg n n_minus_1 d s =
  let a = add two (random_below drbg (sub n_minus_1 two)) in
  let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
  if equal !x one || equal !x n_minus_1 then true
  else begin
    let witness = ref true in
    let r = ref 1 in
    while !witness && !r < s do
      x := rem (mul !x !x) n;
      if equal !x n_minus_1 then witness := false;
      incr r
    done;
    not !witness
  end

(* Miller-Rabin rounds: a composite survives all of them with probability
   at most 4^-24. *)
let miller_rabin_rounds = 24

let is_probable_prime drbg n =
  match to_int n with
  | Some v when v < 2 -> false
  | Some v when v < 1_000_000 ->
      let rec check d = d * d > v || (v mod d <> 0 && check (d + 1)) in
      check 2
  | _ ->
      if not (is_odd n) then false
      else if List.exists (fun p -> snd (divmod_small n p) = 0 && not (equal n (of_int p))) small_primes
      then false
      else begin
        let n_minus_1 = sub n one in
        let rec split d s = if is_odd d then (d, s) else split (shift_right d 1) (s + 1) in
        let d, s = split n_minus_1 0 in
        let rec rounds_ok i =
          i >= miller_rabin_rounds || (miller_rabin_round drbg n n_minus_1 d s && rounds_ok (i + 1))
        in
        rounds_ok 0
      end

let generate_prime drbg ~bits =
  if bits < 8 then invalid_arg "Bignum.generate_prime: need at least 8 bits";
  let top = add (shift_left one (bits - 1)) (shift_left one (bits - 2)) in
  let rec go () =
    let candidate = add (random_bits drbg (bits - 2)) top in
    let candidate = if is_odd candidate then candidate else add candidate one in
    if is_probable_prime drbg candidate then candidate else go ()
  in
  go ()
