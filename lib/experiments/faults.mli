(** Fault-injection sweep: attestation availability on a lossy network.

    For each adversary (independent drop probability p, a deterministic
    drop-every-3rd, and a full blackout) this runs 20 one-time
    attestations through the whole Controller -> Attestation Server ->
    cloud server chain and reports how many rounds still ended in a
    [Healthy] verdict thanks to the retry/resync layer, how many degraded
    to [Unknown], and the simulated latency the recovery added over the
    clean-network baseline. *)

type row = {
  label : string;
  rounds : int;
  healthy : int;
  unknown : int;
  errors : int;
  mean_ms : float;
  added_ms : float;
  drops : int;
  retries : int;
}

type result = row list

val run : ?seed:int -> unit -> result
val print : result -> unit

val clean : result -> bool
(** The gate: no row has an error, every round ends [Healthy] or
    [Unknown], the [clean] row is all [Healthy] and the [blackout] row all
    [Unknown]. *)

val to_json : result -> Json.t
