type t = { know : Term.Set.t }

(* Saturation: repeatedly decompose everything decomposable.  Decryption
   needs derivability of the key, which itself depends on the current
   knowledge, so we iterate to a fixpoint; termination holds because each
   round only adds subterms of existing knowledge. *)

let rec derives_in know term =
  Term.Set.mem term know
  ||
  match term with
  | Term.Const _ -> true (* public constants are always constructible *)
  | Term.Fresh _ -> false
  | Term.Pub k -> derives_in know k
  | Term.Pair (a, b) -> derives_in know a && derives_in know b
  | Term.Senc (k, m) -> derives_in know k && derives_in know m
  | Term.Aenc (pk, m) -> derives_in know pk && derives_in know m
  | Term.Sign (sk, m) -> derives_in know sk && derives_in know m
  | Term.Hash m -> derives_in know m

let decompose_once know =
  let added = ref false in
  let know' = ref know in
  let add t =
    if not (Term.Set.mem t !know') then begin
      know' := Term.Set.add t !know';
      added := true
    end
  in
  Term.Set.iter
    (fun t ->
      match t with
      | Term.Pair (a, b) ->
          add a;
          add b
      | Term.Sign (_, m) -> add m (* signatures are not confidential *)
      | Term.Senc (k, m) -> if derives_in know k then add m
      | Term.Aenc (Term.Pub sk, m) -> if derives_in know sk then add m
      | Term.Aenc (_, _) | Term.Hash _ | Term.Pub _ | Term.Const _ | Term.Fresh _ -> ())
    know;
  (!know', !added)

let saturate know =
  let rec go know =
    let know', progressed = decompose_once know in
    if progressed then go know' else know'
  in
  go know

let of_list terms = { know = saturate (Term.Set.of_list terms) }

let add t term = { know = saturate (Term.Set.add term t.know) }

let derives t term = derives_in t.know term

(* Constructive derivability: the same recursion as [derives_in], but
   returning the witness tree.  [Known] leaves are terms sitting in the
   saturated knowledge set (obtained there by interception or decomposition);
   [Build] nodes are attacker compositions from derivable parts. *)

type proof = Known of Term.t | Build of Term.t * proof list

let rec prove_in know term =
  if Term.Set.mem term know then Some (Known term)
  else
    let build parts =
      let rec all acc = function
        | [] -> Some (List.rev acc)
        | p :: rest -> (
            match prove_in know p with
            | Some proof -> all (proof :: acc) rest
            | None -> None)
      in
      Option.map (fun proofs -> Build (term, proofs)) (all [] parts)
    in
    match term with
    | Term.Const _ -> Some (Build (term, []))
    | Term.Fresh _ -> None
    | Term.Pub k -> build [ k ]
    | Term.Pair (a, b) -> build [ a; b ]
    | Term.Senc (k, m) -> build [ k; m ]
    | Term.Aenc (pk, m) -> build [ pk; m ]
    | Term.Sign (sk, m) -> build [ sk; m ]
    | Term.Hash m -> build [ m ]

let prove t term = prove_in t.know term

let rec pp_proof ppf = function
  | Known t -> Format.fprintf ppf "known %a" Term.pp t
  | Build (t, []) -> Format.fprintf ppf "public %a" Term.pp t
  | Build (t, parts) ->
      Format.fprintf ppf "@[<v 2>build %a from@,%a@]" Term.pp t
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_proof)
        parts
