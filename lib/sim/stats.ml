module Histogram = struct
  type t = { width : float; counts : int array; mutable total : int }

  let create ~bins ~width =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if width <= 0.0 then invalid_arg "Histogram.create: width must be positive";
    { width; counts = Array.make bins 0; total = 0 }

  let bin_of t x =
    (* Bin i covers (i*width, (i+1)*width]: a burst of exactly 4.0ms with
       1ms bins lands in bin 3, matching the paper's (4,5] example for 4.6. *)
    let i = int_of_float (ceil (x /. t.width)) - 1 in
    let i = if i < 0 then 0 else i in
    if i >= Array.length t.counts then Array.length t.counts - 1 else i

  let add t x =
    t.counts.(bin_of t x) <- t.counts.(bin_of t x) + 1;
    t.total <- t.total + 1

  let count t i = t.counts.(i)
  let total t = t.total

  let distribution t =
    let n = Array.length t.counts in
    if t.total = 0 then Array.make n 0.0
    else Array.map (fun c -> float_of_int c /. float_of_int t.total) t.counts

  let of_counts ~width counts =
    let t = create ~bins:(Array.length counts) ~width in
    Array.iteri (fun i c -> t.counts.(i) <- c) counts;
    t.total <- Array.fold_left ( + ) 0 counts;
    t

  let merge a b =
    if a.width <> b.width || Array.length a.counts <> Array.length b.counts then
      invalid_arg "Histogram.merge: incompatible shapes";
    of_counts ~width:a.width (Array.mapi (fun i c -> c + b.counts.(i)) a.counts)
end

module Summary = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  (* Welford's online algorithm. *)
  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = t.mean
  let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))
end

module Reservoir = struct
  type t = {
    cap : int;
    prng : Prng.t;
    mutable data : float array;
    mutable len : int;  (* retained samples *)
    mutable count : int;  (* total observations *)
    mutable sum : float;
    mutable lo : float;
    mutable hi : float;
    mutable sorted : bool;
  }

  let create ?(cap = 8192) ~seed () =
    if cap <= 0 then invalid_arg "Reservoir.create: cap must be positive";
    {
      cap;
      prng = Prng.create seed;
      data = [||];
      len = 0;
      count = 0;
      sum = 0.0;
      lo = infinity;
      hi = neg_infinity;
      sorted = true;
    }

  let ensure_room t =
    let room = Array.length t.data in
    if t.len = room then begin
      let bigger = Array.make (Stdlib.min t.cap (Stdlib.max 64 (2 * room))) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end

  (* Algorithm R: while under [cap] keep everything (the sample is exact);
     past it, each new observation replaces a random slot with probability
     cap/count.  The prng is the reservoir's own, so sampling draws never
     perturb any simulation stream. *)
  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x;
    if t.len < t.cap then begin
      ensure_room t;
      t.data.(t.len) <- x;
      t.len <- t.len + 1;
      t.sorted <- false
    end
    else begin
      let j = Prng.int t.prng t.count in
      if j < t.cap then begin
        t.data.(j) <- x;
        t.sorted <- false
      end
    end

  let n t = t.count
  let retained t = t.len
  let exact t = t.count = t.len
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let min t = if t.count = 0 then nan else t.lo
  let max t = if t.count = 0 then nan else t.hi

  let ensure_sorted t =
    if not t.sorted then begin
      let a = Array.sub t.data 0 t.len in
      Array.sort compare a;
      Array.blit a 0 t.data 0 t.len;
      t.sorted <- true
    end

  (* Nearest-rank over the retained sample; exact whenever count <= cap. *)
  let percentile t p =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
      let rank = if rank < 1 then 1 else if rank > t.len then t.len else rank in
      t.data.(rank - 1)
    end

  (* Fold [b] into [a].  Totals (count, sum, min, max) merge exactly; the
     retained sample is the concatenation when it fits, otherwise a weighted
     without-replacement subsample where each retained item of a reservoir
     stands for count/len originals.  All randomness comes from [a]'s own
     prng, so a fixed merge order gives a fixed result — the property the
     sharded fleet driver's domains=1 vs domains=N byte-identity rests on. *)
  let merge_into a b =
    let total = a.count + b.count in
    a.sum <- a.sum +. b.sum;
    if b.lo < a.lo then a.lo <- b.lo;
    if b.hi > a.hi then a.hi <- b.hi;
    if b.len = 0 then a.count <- total
    else if a.len + b.len <= a.cap then begin
      for i = 0 to b.len - 1 do
        ensure_room a;
        a.data.(a.len) <- b.data.(i);
        a.len <- a.len + 1
      done;
      a.sorted <- false;
      a.count <- total
    end
    else begin
      let wa = float_of_int a.count /. float_of_int a.len
      and wb = float_of_int b.count /. float_of_int b.len in
      let da = Array.sub a.data 0 a.len and db = Array.sub b.data 0 b.len in
      let na = ref a.len and nb = ref b.len in
      let out = Array.make a.cap 0.0 in
      for k = 0 to a.cap - 1 do
        let ta = wa *. float_of_int !na and tb = wb *. float_of_int !nb in
        let from_a = !nb = 0 || (!na > 0 && Prng.float a.prng (ta +. tb) < ta) in
        if from_a then begin
          let i = Prng.int a.prng !na in
          out.(k) <- da.(i);
          da.(i) <- da.(!na - 1);
          decr na
        end
        else begin
          let i = Prng.int a.prng !nb in
          out.(k) <- db.(i);
          db.(i) <- db.(!nb - 1);
          decr nb
        end
      done;
      a.data <- out;
      a.len <- a.cap;
      a.sorted <- false;
      a.count <- total
    end
end

module Gauge = struct
  type t = {
    mutable level : int;
    mutable peak : int;
    mutable last : float;
    mutable area : float;  (* integral of level over time *)
    mutable started : bool;
  }

  let create () = { level = 0; peak = 0; last = 0.0; area = 0.0; started = false }

  let set t ~now v =
    if t.started then t.area <- t.area +. (float_of_int t.level *. (now -. t.last))
    else t.started <- true;
    t.last <- now;
    t.level <- v;
    if v > t.peak then t.peak <- v

  let peak t = t.peak

  let time_weighted_mean t ~now =
    if not t.started || now <= 0.0 then 0.0
    else (t.area +. (float_of_int t.level *. (now -. t.last))) /. now
end

let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let rank = if rank < 1 then 1 else if rank > n then n else rank in
      a.(rank - 1)

module Fraction_series = struct
  type t = {
    mutable num : int array;
    mutable den : int array;
    mutable len : int;
  }

  let create () = { num = [||]; den = [||]; len = 0 }

  let ensure_room t =
    let room = Array.length t.num in
    if t.len = room then begin
      let bigger = Stdlib.max 16 (2 * room) in
      let num = Array.make bigger 0 and den = Array.make bigger 0 in
      Array.blit t.num 0 num 0 t.len;
      Array.blit t.den 0 den 0 t.len;
      t.num <- num;
      t.den <- den
    end

  let record t ~num ~den =
    if num < 0 || den < 0 || num > den then
      invalid_arg "Fraction_series.record: need 0 <= num <= den";
    ensure_room t;
    t.num.(t.len) <- num;
    t.den.(t.len) <- den;
    t.len <- t.len + 1

  let fraction t i =
    if t.den.(i) = 0 then nan
    else float_of_int t.num.(i) /. float_of_int t.den.(i)

  (* Index-aligned: tick k of [b] folds into tick k of [a].  [a] grows when
     [b] has seen more ticks, so merging per-shard series whose clocks tick
     at the same absolute times yields the fleet-wide fraction per tick. *)
  let merge_into a b =
    for i = 0 to b.len - 1 do
      if i < a.len then begin
        a.num.(i) <- a.num.(i) + b.num.(i);
        a.den.(i) <- a.den.(i) + b.den.(i)
      end
      else record a ~num:b.num.(i) ~den:b.den.(i)
    done

  (* Summaries skip empty ticks (den = 0): a shard with no tracked VMs
     still ticks, and an all-empty series has no defined fraction. *)
  let fold f init t =
    let acc = ref init in
    for i = 0 to t.len - 1 do
      if t.den.(i) > 0 then acc := f !acc (fraction t i)
    done;
    !acc

  let min_fraction t =
    match fold (fun a x -> if x < a then x else a) infinity t with
    | x when x = infinity -> nan
    | x -> x

  let mean_fraction t =
    let n = fold (fun a _ -> a + 1) 0 t in
    if n = 0 then nan else fold ( +. ) 0.0 t /. float_of_int n

  let final_fraction t =
    let rec last i = if i < 0 then nan else if t.den.(i) > 0 then fraction t i else last (i - 1) in
    last (t.len - 1)
end

module Two_means = struct
  type result = {
    centers : float * float;
    weights : float * float;
    separation : float;
  }

  let cluster ~values ~mass =
    let n = Array.length values in
    if n = 0 || n <> Array.length mass then None
    else begin
      let total = Array.fold_left ( +. ) 0.0 mass in
      if total <= 0.0 then None
      else begin
        let lo = values.(0) and hi = values.(n - 1) in
        (* Initialise the centers at the extreme values that actually carry
           mass; seeding from empty bins strands one cluster on an outlier
           and merges genuinely separate peaks. *)
        let first_mass = ref lo and last_mass = ref hi in
        (try
           for i = 0 to n - 1 do
             if mass.(i) > 0.0 then begin
               first_mass := values.(i);
               raise Exit
             end
           done
         with Exit -> ());
        (try
           for i = n - 1 downto 0 do
             if mass.(i) > 0.0 then begin
               last_mass := values.(i);
               raise Exit
             end
           done
         with Exit -> ());
        let c1 = ref !first_mass and c2 = ref !last_mass in
        for _iter = 1 to 32 do
          let s1 = ref 0.0 and w1 = ref 0.0 and s2 = ref 0.0 and w2 = ref 0.0 in
          for i = 0 to n - 1 do
            if mass.(i) > 0.0 then begin
              let v = values.(i) in
              if abs_float (v -. !c1) <= abs_float (v -. !c2) then begin
                s1 := !s1 +. (v *. mass.(i));
                w1 := !w1 +. mass.(i)
              end
              else begin
                s2 := !s2 +. (v *. mass.(i));
                w2 := !w2 +. mass.(i)
              end
            end
          done;
          if !w1 > 0.0 then c1 := !s1 /. !w1;
          if !w2 > 0.0 then c2 := !s2 /. !w2
        done;
        let w1 = ref 0.0 and w2 = ref 0.0 in
        for i = 0 to n - 1 do
          if abs_float (values.(i) -. !c1) <= abs_float (values.(i) -. !c2) then
            w1 := !w1 +. mass.(i)
          else w2 := !w2 +. mass.(i)
        done;
        let range = if hi > lo then hi -. lo else 1.0 in
        let lo_c = Float.min !c1 !c2 and hi_c = Float.max !c1 !c2 in
        let lo_w, hi_w = if !c1 <= !c2 then (!w1, !w2) else (!w2, !w1) in
        Some
          {
            centers = (lo_c, hi_c);
            weights = (lo_w /. total, hi_w /. total);
            separation = (hi_c -. lo_c) /. range;
          }
      end
    end

  let min_separation = 0.25
  let min_weight = 0.10

  let bimodal r =
    let w1, w2 = r.weights in
    r.separation >= min_separation && w1 >= min_weight && w2 >= min_weight
end
