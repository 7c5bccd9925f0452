let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the R-7 / numpy default);
   [q] in [0, 1]. *)
let quantile xs q =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method, with its clamping of the rank), so set spreads read exactly as
   the acceptance check computes them. *)
let quartiles xs =
  match sorted xs with
  | [||] -> (Float.nan, Float.nan, Float.nan)
  | [| x |] -> (x, x, x)
  | a ->
      let n = Array.length a in
      let cut i =
        let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
        let delta = (i * (n + 1)) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
      in
      (cut 1, cut 2, cut 3)
