(** Dolev-Yao network attacker behaviours (paper threat model, section 3.3:
    an active adversary with full control of the network who tries to make
    the customer accept a forged attestation report). *)

val passive : on_message:(Net.Network.message -> unit) -> Net.Network.adversary
(** Eavesdrop everything, modify nothing. *)

val flip_byte : ?min_len:int -> unit -> Net.Network.adversary
(** Corrupt byte 48 (the last byte of a shorter payload) of every message
    of at least [min_len] bytes (default 64), in both directions.  Detected
    by record MACs / signatures. *)

val tamper_replies : ?min_len:int -> unit -> Net.Network.adversary
(** Corrupt only replies — e.g. trying to flip an attestation report from
    Compromised to Healthy on its way back. *)

val replay_requests : unit -> Net.Network.adversary
(** Record the first request on each (src, dst) link and substitute it for
    every later request — a replay attack, defeated by per-record sequence
    numbers and per-request nonces. *)

val drop_everything : unit -> Net.Network.adversary
(** Denial of service on the monitoring plane (detected as availability
    loss of the attestation service, not forgeable results). *)
