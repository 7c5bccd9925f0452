(* Protocol phrases: attestation protocols as first-class terms.

   Grammar (one line, no spaces, no ';' — the whole phrase embeds verbatim
   inside a fuzz-op token):

     phrase   := appraise | seq | par | deleg | layer
     appraise := "a" marks slot "." prop          atomic appraisal
     seq      := "(" phrase ">" phrase ")"        sequential composition
     par      := "(" phrase "&" merge phrase ")"  parallel fan-out
     deleg    := "d" weak? cluster ":" phrase     delegate to AS cluster
     layer    := "l" weak? slot ":" phrase        attest the attester first
     merge    := "A" | "O" | "Q"                  All / Any / Quorum
     weak     := "-"                              weakened (attackable) form
     marks    := "-"? "e"? "k"? "m"? "r"?          appraisal weakenings, in order

   The weakened forms are deliberate protocol mistakes the Dolev-Yao engine
   must catch: "a-" drops the per-round nonce (replay), "d-" delegates
   without authenticating the sub-appraiser, "l-" skips the nested backend
   freshness check.  The other appraisal marks are the paper's section
   7.2.2 variants: "e" sends the appraisal's hops unencrypted, "k" leaks
   their channel keys, "m" leaves the measurements unsigned and "r" the
   reports.  [default] is the single appraisal "a0.0", which the
   interpreter compiles to exactly today's hardcoded Controller flow. *)

type merge = All | Any | Quorum

type guards = { encrypt : bool; keys_secret : bool; sign_meas : bool; sign_rep : bool }

let guarded = { encrypt = true; keys_secret = true; sign_meas = true; sign_rep = true }

type t =
  | Appraise of { slot : int; prop : int; nonce : bool; guards : guards }
  | Seq of t * t
  | Par of merge * t * t
  | Deleg of { cluster : int; auth : bool; body : t }
  | Layer of { slot : int; checked : bool; body : t }

let default = Appraise { slot = 0; prop = 0; nonce = true; guards = guarded }

let merge_char = function All -> 'A' | Any -> 'O' | Quorum -> 'Q'

let rec to_string = function
  | Appraise { slot; prop; nonce; guards = g } ->
      let mark on c = if on then "" else c in
      Printf.sprintf "a%s%s%s%s%s%d.%d" (mark nonce "-") (mark g.encrypt "e")
        (mark g.keys_secret "k") (mark g.sign_meas "m") (mark g.sign_rep "r") slot prop
  | Seq (a, b) -> Printf.sprintf "(%s>%s)" (to_string a) (to_string b)
  | Par (m, a, b) ->
      Printf.sprintf "(%s&%c%s)" (to_string a) (merge_char m) (to_string b)
  | Deleg { cluster; auth; body } ->
      Printf.sprintf "d%s%d:%s" (if auth then "" else "-") cluster (to_string body)
  | Layer { slot; checked; body } ->
      Printf.sprintf "l%s%d:%s" (if checked then "" else "-") slot (to_string body)

exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let mark c =
    match peek () with
    | Some c' when c' = c ->
        advance ();
        true
    | _ -> false
  in
  let expect c =
    if not (mark c) then raise (Parse (Printf.sprintf "expected '%c' at offset %d" c !pos))
  in
  let number () =
    let start = !pos in
    while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then raise (Parse (Printf.sprintf "expected a number at offset %d" start));
    int_of_string (String.sub s start (!pos - start))
  in
  let rec phrase () =
    match peek () with
    | Some 'a' ->
        advance ();
        let nonce = not (mark '-') in
        let encrypt = not (mark 'e') in
        let keys_secret = not (mark 'k') in
        let sign_meas = not (mark 'm') in
        let sign_rep = not (mark 'r') in
        (match peek () with
        | Some ('-' | 'e' | 'k' | 'm' | 'r' as c) ->
            raise
              (Parse
                 (Printf.sprintf "mark '%c' repeats or leaves the order -ekmr at offset %d" c
                    !pos))
        | _ -> ());
        let slot = number () in
        expect '.';
        let prop = number () in
        Appraise { slot; prop; nonce; guards = { encrypt; keys_secret; sign_meas; sign_rep } }
    | Some 'd' ->
        advance ();
        let auth = not (mark '-') in
        let cluster = number () in
        expect ':';
        Deleg { cluster; auth; body = phrase () }
    | Some 'l' ->
        advance ();
        let checked = not (mark '-') in
        let slot = number () in
        expect ':';
        Layer { slot; checked; body = phrase () }
    | Some '(' -> (
        advance ();
        let a = phrase () in
        match peek () with
        | Some '>' ->
            advance ();
            let b = phrase () in
            expect ')';
            Seq (a, b)
        | Some '&' -> (
            advance ();
            let m =
              match peek () with
              | Some 'A' -> All
              | Some 'O' -> Any
              | Some 'Q' -> Quorum
              | _ -> raise (Parse (Printf.sprintf "expected merge A/O/Q at offset %d" !pos))
            in
            advance ();
            let b = phrase () in
            expect ')';
            Par (m, a, b))
        | _ -> raise (Parse (Printf.sprintf "expected '>' or '&' at offset %d" !pos)))
    | Some c -> raise (Parse (Printf.sprintf "unexpected '%c' at offset %d" c !pos))
    | None -> raise (Parse "unexpected end of phrase")
  in
  match phrase () with
  | p ->
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok p
  | exception Parse msg -> Error msg

let equal (a : t) (b : t) = a = b

let rec appraisals = function
  | Appraise _ -> 1
  | Seq (a, b) | Par (_, a, b) -> appraisals a + appraisals b
  | Deleg { body; _ } | Layer { body; _ } -> appraisals body

(* Leaf appraisals in execution order, each with its enclosing delegation
   and layering context — the shape both the interpreter and the symbolic
   model generator consume. *)
type leaf = {
  index : int;
  slot : int;
  prop : int;
  nonce : bool;
  guards : guards;
  deleg : (int * bool) option;  (** (cluster, authenticated) *)
  layer : (int * bool) option;  (** (host slot, freshness-checked) *)
}

let leaves phrase =
  let next = ref 0 in
  let rec go deleg layer acc = function
    | Appraise { slot; prop; nonce; guards } ->
        let index = !next in
        incr next;
        { index; slot; prop; nonce; guards; deleg; layer } :: acc
    | Seq (a, b) | Par (_, a, b) -> go deleg layer (go deleg layer acc a) b
    | Deleg { cluster; auth; body } -> go (Some (cluster, auth)) layer acc body
    | Layer { slot; checked; body } -> go deleg (Some (slot, checked)) acc body
  in
  List.rev (go None None [] phrase)

let rec weakened = function
  | Appraise { nonce; guards; _ } -> (not nonce) || guards <> guarded
  | Seq (a, b) | Par (_, a, b) -> weakened a || weakened b
  | Deleg { auth; body; _ } -> (not auth) || weakened body
  | Layer { checked; body; _ } -> (not checked) || weakened body
