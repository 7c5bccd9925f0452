(** Deterministic fault injection for the simulated network.

    These adversaries model the availability half of the paper's 3.3 threat
    model — a network leg that loses or corrupts messages — as opposed to
    the protocol-subverting attackers in [lib/attacks].  Every recovery path
    in the retry/resync layer ([Network.call_with_retry], secure-channel
    record caching and resets, the [Unknown] degradation in [lib/core]) is
    exercised against them in tests and in [bench/main.exe faults].

    All are deterministic: the counting variants keep their own message
    counter, the probabilistic one draws from a seeded {!Sim.Prng}. *)

val drop_nth : int -> Network.adversary
(** [drop_nth n] drops every [n]-th observed message (the [n]-th,
    [2n]-th, ...). *)

val garble_nth : int -> Network.adversary
(** [garble_nth n] flips one bit of the first byte of every [n]-th message
    instead of dropping it. *)

val drop_first : int -> Network.adversary
(** [drop_first n] drops the first [n] messages, then passes everything —
    a transient outage. *)

val lossy : ?garble_p:float -> drop_p:float -> seed:int -> unit -> Network.adversary
(** [lossy ~drop_p ~seed ()] drops each message independently with
    probability [drop_p] and garbles it with probability [garble_p]
    (default 0), using a dedicated PRNG seeded with [seed]. *)

val blackout : unit -> Network.adversary
(** Drop everything: a total partition of the monitoring plane. *)
