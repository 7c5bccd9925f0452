type t =
  | Const of string
  | Fresh of string
  | Pub of t
  | Pair of t * t
  | Senc of t * t
  | Aenc of t * t
  | Sign of t * t
  | Hash of t

let compare = Stdlib.compare

let rec pp ppf = function
  | Const s -> Format.fprintf ppf "%s" s
  | Fresh s -> Format.fprintf ppf "~%s" s
  | Pub k -> Format.fprintf ppf "pk(%a)" pp k
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | Senc (k, m) -> Format.fprintf ppf "senc(%a; %a)" pp k pp m
  | Aenc (k, m) -> Format.fprintf ppf "aenc(%a; %a)" pp k pp m
  | Sign (k, m) -> Format.fprintf ppf "sign(%a; %a)" pp k pp m
  | Hash m -> Format.fprintf ppf "h(%a)" pp m

let to_string t = Format.asprintf "%a" pp t

let rec pair_list = function
  | [] -> Const "nil"
  | [ x ] -> x
  | x :: rest -> Pair (x, pair_list rest)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let subterms t =
  let rec go acc t =
    if Set.mem t acc then acc
    else begin
      let acc = Set.add t acc in
      match t with
      | Const _ | Fresh _ -> acc
      | Pub a | Hash a -> go acc a
      | Pair (a, b) | Senc (a, b) | Aenc (a, b) | Sign (a, b) -> go (go acc a) b
    end
  in
  Set.elements (go Set.empty t)
