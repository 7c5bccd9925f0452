(** Delta-debugging minimisation of failing scenarios.

    [minimize] runs classic ddmin over the op list: try each chunk alone,
    then each complement, doubling granularity until single-op removal is
    exhausted, so the result is 1-minimal — removing any single remaining
    op makes the failure disappear (unless the replay budget ran out
    first, in which case the smallest scenario found so far is returned).

    The predicate is "replay still violates the {e same} oracle", so
    shrinking cannot wander from, say, a cache-consistency failure to an
    unrelated signature failure. *)

val triggers : ?bug:Replay.bug -> ?oracle:string -> Op.scenario -> bool
(** Does replaying the scenario violate [oracle] (any oracle if omitted)? *)

val minimize : ?bug:Replay.bug -> ?oracle:string -> Op.scenario -> Op.scenario * int
(** [minimize scenario] returns the shrunk scenario and the number of
    replays spent, at most 500.  If the input does not fail at all, it is
    returned unchanged (0 extra shrink work). *)
