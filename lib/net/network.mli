(** Simulated network with a Dolev-Yao adversary position.

    Nodes register request handlers under string addresses; [call] performs
    a synchronous request/response exchange and returns both the reply and
    the simulated wire latency of the exchange (two legs of base latency +
    jitter + payload/bandwidth).

    The adversary sits on the wire: it sees every message (eavesdrop log)
    and may pass, rewrite or drop each one.  Because payloads are the real
    serialized bytes of the protocol, tampering is only detected if the
    protocol's cryptography detects it. *)

type t

type address = string

type direction = Request | Reply

type message = {
  seq : int;  (** global message counter *)
  src : address;
  dst : address;
  dir : direction;
  payload : string;
}

type action = Pass | Replace of string | Drop

type adversary = message -> action

type error = [ `Dropped | `No_such_host of address ]

type retry_policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay : Sim.Time.t;  (** wait before the second attempt *)
  backoff : float;  (** multiplier applied to the wait after each failure *)
  max_delay : Sim.Time.t;  (** cap on any single wait *)
  deadline : Sim.Time.t option;
      (** total simulated-time budget for one exchange, waits included; a
          retry that would overrun it is not attempted *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 2 ms initial backoff doubling to a 50 ms cap, 2 s deadline. *)

val create : seed:int -> unit -> t
(** A network modelled on the paper's testbed LAN: 200 us base latency,
    50 us jitter, 1000 Mbps. *)

val register : t -> address -> (string -> string) -> unit
(** Install the request handler for an address (replacing any previous). *)

val unregister : t -> address -> unit

val call : t -> src:address -> dst:address -> string -> (string, error) result * Sim.Time.t
(** Send a request and wait for the reply.  The returned duration covers
    both wire legs (not handler compute time, which the caller accounts). *)

val call_with_retry :
  ?policy:retry_policy ->
  t ->
  src:address ->
  dst:address ->
  string ->
  (string, error) result * Sim.Time.t
(** [call] hardened against message loss: a [`Dropped] exchange is retried
    with exponential backoff until it succeeds, [policy.max_attempts] is
    reached or the next wait would overrun [policy.deadline].  The returned
    duration is the whole exchange — every wire leg attempted plus every
    backoff wait — so callers charge the true cost of an adversarial
    network to their ledgers.  [`No_such_host] is permanent and never
    retried.  [policy] defaults to {!default_retry_policy}. *)

val transfer_time : bytes:int -> Sim.Time.t
(** Wire time for a bulk transfer of [bytes] (used for VM migration). *)

val set_adversary : t -> adversary -> unit
val clear_adversary : t -> unit

val recorded : t -> message list
(** Every message the adversary position has observed, oldest first. *)

val message_count : t -> int

val bytes_sent : t -> int
(** Bytes that crossed the wire: delivered length for passed or rewritten
    messages, original length for dropped ones (the sender's leg was paid). *)

val drop_count : t -> int
(** Messages the adversary dropped. *)

val retry_count : t -> int
(** Re-send attempts performed by {!call_with_retry} so far. *)
