(** Attestation protocols as data (Copland-style phrases).

    CloudMonatt's flow — customer asks the Controller, the Controller asks
    the cluster's Attestation Server, the AS measures through the server's
    Attestation Client — is one point in a protocol space.  A phrase names
    a point in that space: which VM slots are appraised for which
    properties, in what order or in parallel, through which AS cluster,
    and whether the host's trust backend is appraised before its VM quotes
    are believed (layered attestation).  Phrases have a deterministic
    one-line codec so they embed in fuzz-repro lines, a typing judgment
    ({!Typing}), static cost estimates ({!Estimate}), an executable
    semantics over the real Controller ({!Interp}), and a generated
    Dolev-Yao model ({!Dy}). *)

type merge =
  | All  (** healthy iff every branch is healthy (conjunction) *)
  | Any  (** healthy if either branch is healthy (disjunction) *)
  | Quorum  (** healthy iff a strict majority of leaf appraisals are *)

(** The section 7.2.2 protections of one appraisal; each [false] field is
    a weakened form the Dolev-Yao engine must attack. *)
type guards = {
  encrypt : bool;  (** the appraisal's hops are encrypted (['e'] drops it) *)
  keys_secret : bool;  (** their channel keys stay secret (['k'] leaks them) *)
  sign_meas : bool;  (** the server signs its measurements (['m'] drops it) *)
  sign_rep : bool;  (** the AS and controller sign reports (['r'] drops it) *)
}

val guarded : guards
(** Every protection on: the protocol as the paper specifies it. *)

type t =
  | Appraise of { slot : int; prop : int; nonce : bool; guards : guards }
      (** appraise property [prop] of the VM in [slot]; [nonce = false] is
          the weakened replay-prone form *)
  | Seq of t * t
  | Par of merge * t * t
  | Deleg of { cluster : int; auth : bool; body : t }
      (** delegate [body] to AS cluster [cluster]; [auth = false] skips
          authenticating the sub-appraiser *)
  | Layer of { slot : int; checked : bool; body : t }
      (** appraise the trust backend of [slot]'s host before running
          [body]; [checked = false] skips the freshness check *)

val default : t
(** ["a0.0"] — compiles to exactly the hardcoded Controller flow. *)

val to_string : t -> string
(** Deterministic one-line codec: [a0.0], [(a0.0>a1.0)], [(a0.0&Aa1.1)],
    [d1:a2.0], [l0:a0.1]; weakened forms carry a ['-'] after the operator,
    and an appraisal's dropped {!guards} follow as the marks ['e'], ['k'],
    ['m'], ['r'] in that order ([a-km0.0]).  Never contains a space or
    [';'], so it embeds in fuzz-op tokens. *)

val of_string : string -> (t, string) result
(** Strict inverse of {!to_string}: rejects trailing garbage and marks
    that repeat or leave their order. *)

val equal : t -> t -> bool

val appraisals : t -> int
(** Number of {!Appraise} leaves. *)

type leaf = {
  index : int;  (** position in execution order *)
  slot : int;
  prop : int;
  nonce : bool;
  guards : guards;  (** the appraisal's own protections *)
  deleg : (int * bool) option;  (** enclosing (cluster, authenticated) *)
  layer : (int * bool) option;  (** enclosing (host slot, checked) *)
}

val leaves : t -> leaf list
(** Leaf appraisals in execution order with their enclosing context. *)

val weakened : t -> bool
(** Does any node use a weakened form (a ['-'] or an appraisal mark)? *)
