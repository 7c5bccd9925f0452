(** One principal's client end of the secure channel to its next hop.

    Every hop — customer -> controller, controller -> Attestation Server,
    Attestation Server -> cloud server — is the same mutually authenticated
    channel (paper Fig. 1, section 6.1).  A hop caches one channel per peer,
    connects on first use and forgets a channel whose robust call failed.
    It also holds the rule for which failures may degrade a verdict to
    [Unknown], and the bounded from-scratch retry loop around it. *)

type t

type error = [ `Connect of Net.Secure_channel.error | `Call of Net.Secure_channel.error ]

val create :
  net:Net.Network.t ->
  identity:Net.Secure_channel.Identity.t ->
  ca:Crypto.Rsa.public ->
  seed:(string -> string) ->
  address:(string -> string) ->
  t
(** Sends from [identity]'s name.  For a peer (its certificate subject),
    [seed peer] seeds the channel and [address peer] is where it listens. *)

val call : t -> peer:string -> Ledger.t -> (unit -> 'a * string) -> ('a * string, error) result
(** One exchange with [peer].  A new channel charges ["handshake-crypto"] to
    the ledger; every wire exchange charges one ["network"] row to it.
    [request ()] runs once the channel exists and returns the plaintext to
    send beside a value (e.g. the nonce it drew) handed back with the reply. *)

val peer_key : t -> peer:string -> Crypto.Rsa.public option
(** [peer]'s key in the last completed handshake; outlives its channel. *)

val unavailable : Net.Secure_channel.error -> bool
(** Availability-shaped: messages lost after every transport retry (but not
    an unknown host), or a desync a reset could not cure.  Only these may
    degrade a verdict to [Unknown]; every other failure stays hard. *)

val cause : error -> Net.Secure_channel.error

val attempts : int
(** From-scratch rounds one attestation may run before it degrades. *)

val retry :
  degradable:('e -> bool) -> degrade:('e -> 'a) -> (unit -> ('a, 'e) result) -> ('a, 'e) result
(** Runs the round up to {!attempts} times while it fails [degradable]; the
    last such failure becomes [Ok (degrade e)]. *)
