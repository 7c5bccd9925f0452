type kind = Split_view | Inconsistent | Rollback | Bad_signature | Bad_entry

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Split_view -> "split-view"
    | Inconsistent -> "inconsistent"
    | Rollback -> "rollback"
    | Bad_signature -> "bad-signature"
    | Bad_entry -> "bad-entry")

type evidence = {
  log_id : string;
  kind : kind;
  trusted : Sth.t option;
  offending : Sth.t option;
  detail : string;
  at : Sim.Time.t;
}

type log_state = {
  mutable trusted : Sth.t option;
  mutable pending : Sth.t list; (* gossiped heads awaiting a consistency check *)
}

type t = {
  name : string;
  key_of : string -> Crypto.Rsa.public option;
  clock : unit -> Sim.Time.t;
  state : (string, log_state) Hashtbl.t;
  mutable evidence : evidence list; (* newest first *)
  mutable proofs_checked : int;
}

let create ~name ~key_of ?(clock = fun () -> Sim.Time.zero) () =
  {
    name;
    key_of;
    clock;
    state = Hashtbl.create 8;
    evidence = [];
    proofs_checked = 0;
  }

let name t = t.name
let evidence t = List.rev t.evidence
let evidence_count t = List.length t.evidence
let proofs_checked t = t.proofs_checked
let trusted t ~log_id = Option.bind (Hashtbl.find_opt t.state log_id) (fun s -> s.trusted)

let trusted_heads t =
  Hashtbl.fold
    (fun _ st acc -> match st.trusted with Some sth -> sth :: acc | None -> acc)
    t.state []
  |> List.sort (fun a b -> compare a.Sth.log_id b.Sth.log_id)

let state_of t log_id =
  match Hashtbl.find_opt t.state log_id with
  | Some s -> s
  | None ->
      let s = { trusted = None; pending = [] } in
      Hashtbl.add t.state log_id s;
      s

let convict t ?trusted ?offending ~log_id ~kind detail =
  t.evidence <-
    { log_id; kind; trusted; offending; detail; at = t.clock () } :: t.evidence

let good_signature t sth =
  match t.key_of sth.Sth.log_id with
  | None ->
      convict t ~offending:sth ~log_id:sth.Sth.log_id ~kind:Bad_signature
        "STH for unknown log";
      false
  | Some key ->
      if Sth.verify ~key sth then true
      else begin
        convict t ~offending:sth ~log_id:sth.Sth.log_id ~kind:Bad_signature
          "STH signature does not verify";
        false
      end

(* Checks possible without any log access: two signed heads of the same
   size with different roots condemn the operator on the spot. *)
let same_size_conflict t st sth =
  match st.trusted with
  | Some tr when tr.Sth.size = sth.Sth.size && not (String.equal tr.Sth.root sth.Sth.root)
    ->
      convict t ~trusted:tr ~offending:sth ~log_id:sth.Sth.log_id ~kind:Split_view
        (Printf.sprintf "two signed heads of size %d with different roots" sth.Sth.size);
      true
  | _ -> false

let note t sth =
  if good_signature t sth then begin
    let st = state_of t sth.Sth.log_id in
    if not (same_size_conflict t st sth) then begin
      match st.trusted with
      | Some tr when Sth.equal tr sth -> ()
      | None ->
          (* First contact: trust-on-first-use, like a CT client. *)
          st.trusted <- Some sth
      | Some _ ->
          if
            not
              (List.exists (fun p -> Sth.equal p sth) st.pending)
          then st.pending <- sth :: st.pending
    end
  end

(* Prove [old] is a prefix of [new_] using the view's consistency oracle.
   An operator that cannot serve the requested proof at all — e.g. a forked
   log asked to extend to a size it never reached — fails the check just
   like one serving a bad proof. *)
let check_extends t (view : View.t) ~old ~new_ =
  t.proofs_checked <- t.proofs_checked + 1;
  match view.View.consistency ~old_size:old.Sth.size ~size:new_.Sth.size with
  | proof ->
      Crypto.Merkle.verify_consistency ~old_size:old.Sth.size ~old_root:old.Sth.root
        ~size:new_.Sth.size ~root:new_.Sth.root proof
  | exception _ -> false

let drain_pending t st (view : View.t) =
  let pending = st.pending in
  st.pending <- [];
  List.iter
    (fun p ->
      match st.trusted with
      | None -> st.trusted <- Some p
      | Some tr ->
          if not (Sth.equal tr p) && not (same_size_conflict t st p) then begin
            if p.Sth.size < tr.Sth.size then begin
              (* A peer's older head must appear in our history. *)
              if not (check_extends t view ~old:p ~new_:tr) then
                convict t ~trusted:tr ~offending:p ~log_id:view.View.log_id
                  ~kind:Inconsistent
                  "gossiped head is not a prefix of the view we were served"
            end
            else if check_extends t view ~old:tr ~new_:p then st.trusted <- Some p
            else
              convict t ~trusted:tr ~offending:p ~log_id:view.View.log_id
                ~kind:Inconsistent
                "gossiped head does not extend the view we were served"
          end)
    pending

let observe t (view : View.t) =
  let sth = view.View.latest_sth () in
  if good_signature t sth then begin
    let st = state_of t view.View.log_id in
    (match st.trusted with
    | None -> st.trusted <- Some sth
    | Some tr ->
        if not (Sth.equal tr sth) && not (same_size_conflict t st sth) then begin
          if sth.Sth.size < tr.Sth.size then
            (* The log itself served us a head older than one it already
               served us: it is hiding entries it committed to. *)
            convict t ~trusted:tr ~offending:sth ~log_id:view.View.log_id ~kind:Rollback
              (Printf.sprintf "served head regressed from size %d to %d" tr.Sth.size
                 sth.Sth.size)
          else if check_extends t view ~old:tr ~new_:sth then st.trusted <- Some sth
          else
            convict t ~trusted:tr ~offending:sth ~log_id:view.View.log_id
              ~kind:Inconsistent "served head does not extend the previous one"
        end);
    drain_pending t st view
  end

let replay t (view : View.t) ~upto ~check =
  let bad = ref 0 in
  for i = 0 to upto - 1 do
    match view.View.entry i with
    | None ->
        incr bad;
        convict t ~log_id:view.View.log_id ~kind:Bad_entry
          (Printf.sprintf "entry %d missing below the committed size" i)
    | Some entry ->
        if not (check ~index:i entry) then begin
          incr bad;
          convict t ~log_id:view.View.log_id ~kind:Bad_entry
            (Printf.sprintf "entry %d failed the content check" i)
        end
  done;
  !bad

(* Gossip: hand every trusted head to a peer auditor. *)
let broadcast t ~to_ =
  Hashtbl.iter
    (fun _ st -> match st.trusted with Some sth -> note to_ sth | None -> ())
    t.state

let exchange a b =
  broadcast a ~to_:b;
  broadcast b ~to_:a
