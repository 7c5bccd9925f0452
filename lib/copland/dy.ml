(* Per-phrase Dolev-Yao verification: the repository's one symbolic model of
   the attestation protocol (paper Figure 3, section 7.2.2).

   The model is *generated* from a phrase: two protocol sessions over
   long-lived channel keys (channels are cached across attestation rounds,
   exactly like the simulator's), per-leaf session keys and nonces, plus
   the knowledge an attacker gains from each weakened form —

   - a no-nonce appraisal ("a-") makes both sessions use the same public
     nonce constant, so replayed session-1 material matches session-2
     acceptance patterns;
   - an unencrypted appraisal ("ae") sends its hops in the clear, so the
     attacker reads every payload and forges requests;
   - leaked channel keys ("ak", compromised SSL endpoints) hand the
     attacker the leaf's Kx, Ky and Kz: the signature chain must stand
     alone;
   - unsigned measurements ("am") or reports ("ar") make acceptance check
     only the message shape, and give the session-1 payload its own term so
     that replaying it under a session-2 nonce is visible;
   - an unauthenticated delegation ("d-") sends the controller <-> sub-AS
     hop in the clear and drops the delegation certificate from report
     acceptance, so the attacker's own key signs accepted reports;
   - an unchecked layer ("l-") trusts quotes from a host whose restored
     trust backend was never re-registered: the stale state leaks the
     host's channel key and an epoch-0-endorsed session key, and report
     acceptance no longer pins the binding epoch.

   Eight checks cover the paper's six section 7.2.2 properties (secrecy and
   integrity split in two).  Secrecy is derivability from the saturated
   attacker knowledge; integrity, freshness and authentication test the
   structurally accepting forgeries and replays for derivability.  Every
   violation is turned into a concrete attack: the forged or replayed
   message together with its [Deduction.prove] derivation. *)

module T = Term
module D = Deduction

type outcome = Holds | Violated of string

type check = { id : string; name : string; outcome : outcome }

type attack = {
  check_id : string;
  description : string;
  message : T.t;
  proof : D.proof;
}

type report = {
  phrase : Phrase.t;
  checks : check list;
  attacks : attack list;
}

let check_ids =
  [
    "secrecy-channel-keys";
    "secrecy-identity-keys";
    "secrecy-payloads";
    "integrity";
    "freshness";
    "auth-customer-controller";
    "auth-controller-as";
    "auth-as-server";
  ]

(* --- Key and payload vocabulary ------------------------------------------- *)

let skcust = T.Fresh "SKcust" (* signs nothing on the wire; must stay secret *)
let skc = T.Fresh "SKc"
let ski = T.Fresh "SKi" (* the attacker's own signing key *)
let kx = T.Fresh "Kx"
let ska c = T.Fresh (Printf.sprintf "SKa%d" c)
let ky c = T.Fresh (Printf.sprintf "Ky%d" c)
let sks h = T.Fresh (Printf.sprintf "SKs%d" h)
let kz s = T.Fresh (Printf.sprintf "Kz%d" s)
let stale_key h = T.Fresh (Printf.sprintf "ASKstale%d" h)
let payload_p = T.Fresh "P"
let payload_m = T.Fresh "rM"
let payload_r = T.Fresh "rR"
let fresh_epoch = T.Const "epoch1"
let stale_epoch = T.Const "epoch0"
let reused_nonce = T.Const "nonce0"
let evil_measurements = T.Const "evil-measurements"
let evil_report = T.Const "report-says-healthy"
let evil_property = T.Const "evil-property"
let evil_nonce = T.Const "evil-nonce"

(* One leaf appraisal with its weakenings resolved. *)
type lview = {
  leaf : Phrase.leaf;
  guards : Phrase.guards;
  cluster : int;  (** appraising AS cluster (0 outside delegations) *)
  unauth : bool;  (** delegated without authentication *)
  unchecked : bool;  (** layered but freshness check skipped *)
  hostkey : int;  (** which host identity key endorses this leaf's quotes *)
}

let view (l : Phrase.leaf) =
  let cluster, unauth =
    match l.Phrase.deleg with Some (c, auth) -> (c, not auth) | None -> (0, false)
  in
  let unchecked = match l.Phrase.layer with Some (_, checked) -> not checked | None -> false in
  let hostkey = match l.Phrase.layer with Some (ls, _) -> ls | None -> l.Phrase.slot in
  { leaf = l; guards = l.Phrase.guards; cluster; unauth; unchecked; hostkey }

let vid v = T.Const (Printf.sprintf "vm%d" v.leaf.Phrase.slot)
let srv v = T.Const (Printf.sprintf "server%d" v.leaf.Phrase.slot)
let propc v = T.Const (Printf.sprintf "prop%d" v.leaf.Phrase.prop)
let asks i v = T.Fresh (Printf.sprintf "ASKs.%d.%d" i v.leaf.Phrase.index)

let n1 i = T.Fresh (Printf.sprintf "N1.%d" i)

let n2 i v =
  if v.leaf.Phrase.nonce then T.Fresh (Printf.sprintf "N2.%d.%d" i v.leaf.Phrase.index)
  else reused_nonce

let n3 i v =
  if v.leaf.Phrase.nonce then T.Fresh (Printf.sprintf "N3.%d.%d" i v.leaf.Phrase.index)
  else reused_nonce

let sessions = [ 1; 2 ]

let dedup xs = List.sort_uniq compare xs

(* --- Model generation ------------------------------------------------------ *)

(* The leaf's three hops: customer <-> controller under Kx, controller <-> AS
   under its cluster's Ky (in the clear when the delegation skips
   authentication), AS <-> server under the server's Kz.  An unencrypted
   leaf sends all three in the clear. *)
let on_kx v body = if v.guards.Phrase.encrypt then T.Senc (kx, body) else body

let on_ky v body =
  if v.unauth || not v.guards.Phrase.encrypt then body else T.Senc (ky v.cluster, body)

let on_kz v body =
  if v.guards.Phrase.encrypt then T.Senc (kz v.leaf.Phrase.slot, body) else body

(* Quoted measurements and reports, signed unless the leaf drops that
   signature. *)
let quote v key m = if v.guards.Phrase.sign_meas then T.Pair (m, T.Sign (key, m)) else m
let signed v key r = if v.guards.Phrase.sign_rep then T.Sign (key, r) else r

(* A signed payload is bound to its session by the signature over the
   nonce, so one M and one R serve both sessions.  An unsigned one is bound
   by nothing: its session-1 value is a term of its own, so replaying it
   under a session-2 nonce is a freshness candidate. *)
let stale_m = T.Fresh "rM.1"
let stale_r = T.Fresh "rR.1"
let payload_m_at i v = if i = 1 && not v.guards.Phrase.sign_meas then stale_m else payload_m
let payload_r_at i v = if i = 1 && not v.guards.Phrase.sign_rep then stale_r else payload_r

let meas i v = T.pair_list [ vid v; payload_m_at i v; n3 i v ]
let rep i v = T.pair_list [ vid v; propc v; payload_r_at i v; n2 i v ]
let customer_rep i v = T.pair_list [ vid v; propc v; payload_r_at i v; n1 i ]
let endorsement i v = T.Sign (sks v.hostkey, T.pair_list [ T.Pub (asks i v); fresh_epoch ])
let measurement_reply i v = on_kz v (quote v (asks i v) (meas i v))
let deleg_cert c = T.Sign (skc, T.pair_list [ T.Const "deleg"; T.Pub (ska c) ])

(* Everything one session of one leaf puts on the wire. *)
let traffic i v =
  [
    (* customer -> controller *)
    on_kx v (T.pair_list [ vid v; propc v; payload_p; n1 i ]);
    (* controller -> AS *)
    on_ky v (T.pair_list [ vid v; srv v; payload_p; n2 i v ]);
    (* AS -> server measurement request *)
    on_kz v (T.pair_list [ vid v; T.Const "requests"; n3 i v ]);
    (* server -> AS: quoted measurements + session-key endorsement *)
    measurement_reply i v;
    endorsement i v;
    (* AS -> controller report *)
    on_ky v (signed v (ska v.cluster) (rep i v));
    (* controller -> customer *)
    on_kx v (signed v skc (customer_rep i v));
  ]

let leaks v =
  (if v.guards.Phrase.keys_secret then [] else [ kx; ky v.cluster; kz v.leaf.Phrase.slot ])
  @
  if not v.unchecked then []
  else
    [
      (* The restored-but-never-rebound backend state: the host's channel
         key and an old, epoch-0-endorsed session key. *)
      kz v.leaf.Phrase.slot;
      stale_key v.hostkey;
      T.Sign (sks v.hostkey, T.pair_list [ T.Pub (stale_key v.hostkey); stale_epoch ]);
    ]

let knowledge views =
  let clusters = dedup (List.map (fun v -> v.cluster) views) in
  let hostkeys = dedup (List.map (fun v -> v.hostkey) views) in
  let auth_deleg_clusters =
    dedup (List.filter_map (fun v ->
        match v.leaf.Phrase.deleg with Some (c, true) -> Some c | _ -> None) views)
  in
  List.concat
    [
      [ ski; T.Pub ski; T.Pub skcust; T.Pub skc ];
      List.map (fun c -> T.Pub (ska c)) clusters;
      List.map (fun h -> T.Pub (sks h)) hostkeys;
      List.map deleg_cert auth_deleg_clusters;
      List.concat_map (fun i -> List.concat_map (traffic i) views) sessions;
      List.concat_map leaks views;
    ]

(* --- Checks ---------------------------------------------------------------- *)

let accepted_epochs v = if v.unchecked then [ stale_epoch; fresh_epoch ] else [ fresh_epoch ]

let verify phrase =
  let views = List.map view (Phrase.leaves phrase) in
  let know = D.of_list (knowledge views) in
  let attacks = ref [] in
  let add_attack check_id description message =
    match D.prove know message with
    | Some proof -> attacks := { check_id; description; message; proof } :: !attacks
    | None -> ()
  in
  let outcome = function [] -> Holds | d :: _ -> Violated d in
  (* A secrecy-style check: every derivable item is a violation and its own
     attack witness. *)
  let secrecy id name items =
    let broken = List.filter (fun (_, t) -> D.derives know t) items in
    List.iter (fun (d, t) -> add_attack id d t) broken;
    { id; name; outcome = outcome (List.map fst broken) }
  in
  (* A forgery-style check: a violation is an accepting term the attacker
     can derive (acceptance side conditions already folded in). *)
  let forgery id name candidates =
    let broken = List.filter (fun (_, t, extra) ->
        D.derives know t && List.for_all (D.derives know) extra) candidates
    in
    List.iter (fun (d, t, _) -> add_attack id d t) broken;
    { id; name; outcome = outcome (List.map (fun (d, _, _) -> d) broken) }
  in
  let clusters = dedup (List.map (fun v -> v.cluster) views) in
  let hostkeys = dedup (List.map (fun v -> v.hostkey) views) in
  let slots = dedup (List.map (fun v -> v.leaf.Phrase.slot) views) in
  let leaf_label v = Printf.sprintf "leaf %d (vm%d)" v.leaf.Phrase.index v.leaf.Phrase.slot in
  (* A candidate that only a weakened leaf offers. *)
  let if_weak weak v description message =
    if weak then [ (Printf.sprintf "%s: %s" (leaf_label v) description, message, []) ] else []
  in
  (* A forged request on an unencrypted hop; encrypted, forging one needs
     the channel key, which the key candidates already cover. *)
  let forged_request v description fields =
    if_weak (not v.guards.Phrase.encrypt) v description (T.pair_list fields)
  in
  let evil_rep v = T.pair_list [ vid v; propc v; evil_report; n2 2 v ] in
  let evil_customer_rep v = T.pair_list [ vid v; propc v; evil_report; n1 2 ] in
  let checks =
    [
      secrecy "secrecy-channel-keys" "(1a) session keys Kx/Ky/Kz stay secret"
        (("customer channel key Kx leaked", kx)
        :: List.map (fun c -> (Printf.sprintf "controller<->AS%d channel key leaked" c, ky c)) clusters
        @ List.map (fun s -> (Printf.sprintf "AS<->server%d channel key leaked" s, kz s)) slots);
      secrecy "secrecy-identity-keys" "(1b) private keys SKcust/SKc/SKa/SKs/ASKs stay secret"
        ((("customer key SKcust leaked", skcust) :: ("controller key SKc leaked", skc)
         :: List.map (fun c -> (Printf.sprintf "AS%d key leaked" c, ska c)) clusters)
        @ List.map (fun h -> (Printf.sprintf "server%d identity key leaked" h, sks h)) hostkeys
        @ List.concat_map
            (fun v ->
              List.map
                (fun i -> (Printf.sprintf "%s session key (session %d) leaked" (leaf_label v) i, asks i v))
                sessions)
            views);
      secrecy "secrecy-payloads" "(2) P, M and R stay secret"
        [
          ("property payload P leaked", payload_p);
          ("measurements M leaked", payload_m);
          ("report R leaked", payload_r);
        ];
      forgery "integrity" "(3) P, M and R cannot be modified"
        (List.concat_map
           (fun v ->
             let evil_meas = T.pair_list [ vid v; evil_measurements; n3 2 v ] in
             let meas_forgeries =
               if not v.guards.Phrase.sign_meas then
                 [
                   ( Printf.sprintf "%s: forged unsigned measurements" (leaf_label v),
                     on_kz v evil_meas,
                     [] );
                 ]
               else
                 let keys = (ski, "the attacker's key") :: (if v.unchecked then [ (stale_key v.hostkey, "the leaked stale session key") ] else []) in
                 List.concat_map
                   (fun (k, kd) ->
                     List.map
                       (fun epoch ->
                         ( Printf.sprintf
                             "%s: forged measurements signed with %s pass the endorsement check"
                             (leaf_label v) kd,
                           on_kz v (quote v k evil_meas),
                           [ T.Sign (sks v.hostkey, T.pair_list [ T.Pub k; epoch ]) ] ))
                       (accepted_epochs v))
                   keys
             in
             let rep_forgeries =
               if v.unauth then
                 [
                   ( Printf.sprintf
                       "%s: unauthenticated delegation accepts a report signed by the attacker"
                       (leaf_label v),
                     on_ky v (signed v ski (evil_rep v)),
                     [] );
                 ]
               else
                 [
                   ( Printf.sprintf "%s: forged AS report" (leaf_label v),
                     on_ky v (signed v (ska v.cluster) (evil_rep v)),
                     [] );
                 ]
             in
             let customer_forgery =
               [
                 ( Printf.sprintf "%s: forged controller report" (leaf_label v),
                   on_kx v (signed v skc (evil_customer_rep v)),
                   [] );
               ]
             in
             meas_forgeries @ rep_forgeries @ customer_forgery)
           views);
      forgery "freshness" "(3b) nonces reject cross-session replay"
        (List.concat_map
           (fun v ->
             if_weak (not v.leaf.Phrase.nonce) v
               "reused nonce lets the session-1 measurement quote replay into session 2"
               (measurement_reply 1 v)
             @ if_weak (not v.guards.Phrase.sign_meas) v
                 "unsigned session-1 measurements replay under the session-2 nonce"
                 (on_kz v (T.pair_list [ vid v; stale_m; n3 2 v ]))
             @ if_weak (not v.guards.Phrase.sign_rep) v
                 "unsigned session-1 report replays under the session-2 nonce"
                 (on_kx v (T.pair_list [ vid v; propc v; stale_r; n1 2 ])))
           views);
      forgery "auth-customer-controller" "(4) customer <-> controller authenticated"
        (("customer channel key Kx derivable", kx, [])
        :: List.concat_map
             (fun v ->
               ( Printf.sprintf "%s: forged customer-facing report" (leaf_label v),
                 on_kx v (signed v skc (evil_customer_rep v)),
                 [] )
               :: forged_request v "attacker impersonates the customer to the controller"
                    [ vid v; propc v; evil_property; evil_nonce ])
             views);
      forgery "auth-controller-as" "(5) controller <-> attestation server authenticated"
        (List.concat_map
           (fun v ->
             [
               ( Printf.sprintf "controller<->AS%d channel key derivable" v.cluster,
                 ky v.cluster,
                 [] );
               (if v.unauth then
                  ( Printf.sprintf
                      "%s: attacker impersonates the unauthenticated sub-appraiser"
                      (leaf_label v),
                    on_ky v (signed v ski (evil_rep v)),
                    [] )
                else
                  ( Printf.sprintf "%s: forged delegation certificate" (leaf_label v),
                    T.Sign (skc, T.pair_list [ T.Const "deleg"; T.Pub ski ]),
                    [] ));
             ]
             @ forged_request v "attacker impersonates the controller to the AS"
                 [ vid v; srv v; evil_property; evil_nonce ])
           views);
      forgery "auth-as-server" "(6) attestation server <-> cloud server authenticated"
        (List.concat_map
           (fun v ->
             ( Printf.sprintf "%s: attacker injects a measurement request to the server"
                 (leaf_label v),
               on_kz v (T.pair_list [ vid v; T.Const "requests"; evil_nonce ]),
               [] )
             :: List.map
                  (fun epoch ->
                    ( Printf.sprintf
                        "%s: attacker impersonates the server with an accepted stale \
                         endorsement"
                        (leaf_label v),
                      T.Sign (sks v.hostkey, T.pair_list [ T.Pub (stale_key v.hostkey); epoch ]),
                      [] ))
                  (accepted_epochs v))
           views);
    ]
  in
  { phrase; checks; attacks = List.rev !attacks }

let holds r = List.for_all (fun c -> c.outcome = Holds) r.checks

let violated r =
  List.filter_map
    (fun c -> match c.outcome with Violated _ -> Some c.id | Holds -> None)
    r.checks

let pp_check ppf c =
  match c.outcome with
  | Holds -> Format.fprintf ppf "%-28s %s: HOLDS" c.id c.name
  | Violated why -> Format.fprintf ppf "%-28s %s: VIOLATED (%s)" c.id c.name why

let pp_attack ppf a =
  Format.fprintf ppf "@[<v 2>[%s] %s@,message: %a@,%a@]" a.check_id a.description T.pp
    a.message D.pp_proof a.proof
