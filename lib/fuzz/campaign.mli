(** Campaign driver: generate, replay, cross-check and shrink.

    Each run [i] of a campaign:

    + generates [Gen.generate ~seed:(seed0 + i) ~ops];
    + replays it under every {!Oracle} invariant;
    + replays it a second time and compares trace digests (bit-for-bit
      determinism is itself an invariant — [determinism] oracle);
    + if the scenario toggled batching on, replays a fault-free twin and
      its unbatched counterpart and compares per-op verdict statuses
      ([batch-equivalence] oracle: batching may change cost, never
      verdicts);
    + on failure, delta-debugs the op list ({!Shrink.minimize}) down to a
      1-minimal counterexample and renders a one-line repro
      ([seed=N ops=...]) replayable with {!Replay.run} via
      {!Op.of_string}. *)

type failure = {
  scenario : Op.scenario;  (** as generated *)
  first : Oracle.violation;  (** first violation of the original replay *)
  shrunk : Op.scenario;  (** 1-minimal (within the shrink budget) *)
  repro : string;  (** one-line replayable form of [shrunk] *)
  shrink_replays : int;
}

type report = {
  seed0 : int;
  runs : int;
  ops_per_run : int;
  total_ops : int;
  total_vms : int;
  total_attests : int;
  failures : failure list;  (** at most one per failing run *)
  determinism_mismatches : int;
  batch_checked : int;  (** scenarios put through the batching twin check *)
  batch_mismatches : (int * string) list;  (** (seed, detail) *)
}

val campaign :
  ?bug:Replay.bug ->
  ?check_determinism:bool ->
  ?check_batch_equiv:bool ->
  ?shrink_budget:int ->
  seed0:int ->
  runs:int ->
  ops_per_run:int ->
  unit ->
  report

val clean : report -> bool
(** No failures, no determinism mismatches, no batching mismatches. *)

val pp_report : Format.formatter -> report -> unit
