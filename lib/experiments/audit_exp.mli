(** Verdict-transparency experiment: audit overhead versus an audit-off
    baseline across checkpoint interval, offered rate and shard count,
    plus split-view detection latency under a forking log operator. *)

type row = {
  interval : Sim.Time.t;  (** checkpoint (STH) interval *)
  rate : float;
  as_count : int;
  base : Fleet.Driver.result;  (** audit off, otherwise identical config *)
  audited : Fleet.Driver.result;
}

type detection = {
  det_interval : Sim.Time.t;
  forked_at : Sim.Time.t;  (** when the operator's histories diverged *)
  detected_at : Sim.Time.t option;  (** first auditor evidence, if any *)
  evidence_kind : string;
}

type result = { seed : int; scale : string; rows : row list; detections : detection list }

val detection_run : seed:int -> interval:Sim.Time.t -> detection
(** One adversarial scenario: a {!Audit.View.fork} planted mid-interval
    under two gossiping auditors checkpointing every [interval]. *)

val run : ?seed:int -> ?scale:[ `Default | `Smoke ] -> unit -> result
(** [scale] defaults to [`Smoke] when [CLOUDMONATT_FLEET_SCALE=smoke],
    [`Default] otherwise. *)

val clean : result -> bool
(** The gate: at least one split-view scenario ran, and every fork was
    convicted within one checkpoint interval. *)

val print : result -> unit
val to_json : result -> Json.t
