(** Auditors: the independent parties that keep a log operator honest.

    An auditor tracks, per log, the newest {e trusted} signed tree head —
    one it has verified extends every head it trusted before.  Heads
    arrive two ways: by polling the log's own face ({!observe}) and by
    gossip from peers ({!note}).  Misbehaviour surfaces as [evidence]:

    - {e Split_view}: two validly signed heads of the same size with
      different roots (no proof needed — the pair itself convicts).
    - {e Inconsistent}: a head that the served view cannot prove to extend
      (or be a prefix of) the trusted one — a fork or a dropped entry.
    - {e Rollback}: the log's own face served a head older than one it
      already served this auditor.
    - {e Bad_signature} / {e Bad_entry}: forged heads; entries that fail
      replay (e.g. a verdict whose AS signature does not verify).

    Detection latency is bounded by the gossip cadence: once two observers
    hold divergent checkpoints, the first {!exchange} between them yields
    evidence — within one checkpoint interval of the divergence. *)

type kind = Split_view | Inconsistent | Rollback | Bad_signature | Bad_entry

type evidence = {
  log_id : string;
  kind : kind;
  trusted : Sth.t option;  (** the head we held, if any *)
  offending : Sth.t option;  (** the head that convicted the operator *)
  detail : string;
  at : Sim.Time.t;  (** simulated detection time *)
}

type t

val create :
  name:string ->
  key_of:(string -> Crypto.Rsa.public option) ->
  ?clock:(unit -> Sim.Time.t) ->
  unit ->
  t
(** [key_of log_id] resolves the operator key used to verify that log's
    STH signatures; unknown logs yield [Bad_signature] evidence. *)

val name : t -> string

val observe : t -> View.t -> unit
(** Poll the log's face: verify its latest head extends the trusted one
    (consistency proof), then re-check any gossiped heads against the
    served view. *)

val note : t -> Sth.t -> unit
(** Take in a gossiped head: signature and same-size cross-checks happen
    immediately; prefix checks wait for the next {!observe}. *)

val replay : t -> View.t -> upto:int -> check:(index:int -> string -> bool) -> int
(** [replay t view ~upto ~check] walks entries [0, upto) through [check]
    (e.g. verdict-signature verification), records [Bad_entry] evidence
    for each failure and returns the failure count. *)

val exchange : t -> t -> unit
(** Gossip every trusted head between two auditors, both ways. *)

val trusted : t -> log_id:string -> Sth.t option

val trusted_heads : t -> Sth.t list
(** Every trusted head, ordered by log id (for gossip broadcasts). *)

val evidence : t -> evidence list
(** Oldest first. *)

val evidence_count : t -> int
val proofs_checked : t -> int

val pp_kind : Format.formatter -> kind -> unit
