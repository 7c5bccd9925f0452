(** The fuzz campaign as a registered experiment: a deterministic sweep of
    generated cloud histories through the oracle library, a fleet-config
    property sweep, and mutation testing of the oracles themselves (each
    planted cache-invalidation bug must be caught and shrink to a short
    repro).

    Exit-status material: {!clean} is false whenever any oracle fired on
    the unmutated system or a planted bug went uncaught, so CI can gate on
    it and publish {!repro_lines}. *)

type planted = {
  bug_name : string;
  caught : bool;
  found_at_seed : int;  (** seed of the first failing scenario (-1 if uncaught) *)
  shrunk_ops : int;
  repro : string;
}

type result = {
  seed : int;
  scale : string;
  report : Fuzz.Campaign.report;
  fleet_runs : int;
  fleet_violations : Fuzz.Fleet_props.violation list;
  planted : planted list;
}

val run : ?seed:int -> ?scale:[ `Default | `Smoke ] -> unit -> result
(** [scale] defaults to [`Smoke] when [CLOUDMONATT_FLEET_SCALE=smoke], else
    [`Default] (1000 runs; smoke runs 200).  [CLOUDMONATT_FUZZ_RUNS]
    overrides the campaign size either way. *)

val clean : result -> bool
(** {!Fuzz.Campaign.clean}, at least one batched/unbatched twin compared
    (so that oracle cannot pass without running), no fleet-property
    violation, and every planted bug caught. *)

val repro_lines : result -> string list
(** One replayable line per failure (campaign failures, then planted). *)

val print : result -> unit
val to_json : result -> Json.t
