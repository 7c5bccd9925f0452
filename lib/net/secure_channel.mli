(** SSL-style authenticated, encrypted channels.

    The paper assumes the customer, Cloud Controller, Attestation Server and
    secure Cloud Servers speak SSL; this module is that layer.  A handshake
    mutually authenticates both ends with CA-certified RSA identity keys and
    fresh randoms, derives symmetric session keys ([Kx], [Ky], [Kz] in
    Figure 3), and then protects each request/response with
    ChaCha20 + HMAC-SHA256 records carrying strict sequence numbers, so a
    network adversary's tampering, replay or reflection is detected.

    The server side is a network request handler that multiplexes any number
    of sessions; the client side wraps a transport function (normally
    {!Network.call} partially applied). *)

type error =
  [ `Auth_failure  (** bad certificate, signature or MAC *)
  | `Replay  (** sequence number mismatch *)
  | `Malformed
  | `Transport of string
  | `Rejected of string  (** server-side handshake refusal *) ]

val pp_error : Format.formatter -> error -> unit

val transient : error -> bool
(** Errors a retry or channel reset may cure — dropped or garbled messages,
    sequence desync, forgotten sessions — as opposed to policy refusals
    (bad certificate, peer not allowed) that will repeat identically. *)

val desync : error -> bool
(** Errors meaning the two ends disagree on sequence state, curable only by
    a fresh handshake ({!Client.reset}). Implies {!transient}. *)

(** A named principal: keypair plus CA-issued certificate. *)
module Identity : sig
  type t = { name : string; keypair : Crypto.Rsa.keypair; cert : Ca.cert }

  val make : Ca.t -> seed:string -> ?bits:int -> name:string -> unit -> t
end

module Server : sig
  type t

  val create :
    identity:Identity.t ->
    ca:Crypto.Rsa.public ->
    seed:string ->
    accept:(string -> bool) ->
    on_request:(peer:string -> string -> string) ->
    t
  (** [accept peer] decides which authenticated peer names may complete a
      handshake; any other peer is refused with [`Rejected "peer not
      allowed"].  [on_request ~peer payload] handles one decrypted
      application request from the authenticated principal [peer] and
      returns the reply plaintext. *)

  val handle : t -> string -> string
  (** The raw network handler: feeds handshake messages and data records to
      the state machine.  Register it with {!Network.register}. *)

  val sessions : t -> int

end

module Client : sig
  type t

  val connect :
    identity:Identity.t ->
    ca:Crypto.Rsa.public ->
    seed:string ->
    peer:string ->
    transport:(string -> (string, string) result) ->
    (t, error) result
  (** Run the handshake.  [peer] is the expected certificate subject of the
      far end; a different (even validly certified) subject fails. *)

  val call : t -> string -> (string, error) result
  (** One encrypted, authenticated request/response exchange.  Sequence
      counters only advance on success, so a failed call leaves the channel
      in a well-defined state: re-sending the same plaintext re-sends the
      identical record, which an up-to-date server answers from its reply
      cache instead of re-executing. *)

  val call_robust : ?attempts:int -> t -> string -> (string, error) result
  (** [call] hardened against the adversarial network: on a {!transient}
      failure the same record is re-sent (served from the server's reply
      cache if it was already consumed); on a {!desync} failure the channel
      is {!reset} (fresh handshake) and the request re-sent under the new
      session.  At most [attempts] (default 3) calls in total.  Non-
      transient refusals fail immediately.  Note the resulting semantics
      are at-least-once across a reset: only idempotent requests (e.g.
      measurement collection) should ride this path. *)

  val reset : t -> (unit, error) result
  (** Drop the session and run a fresh handshake over the same transport,
      with fresh randoms.  Cures a sequence-counter desync after losses;
      pending server-side state for the old session is simply abandoned. *)

  val handshakes : t -> int
  (** Completed handshakes on this channel (1 after [connect]; more after
      resets). *)

  val peer : t -> string

  val peer_key : t -> Crypto.Rsa.public
  (** The peer's CA-certified public key, as authenticated during the
      handshake (callers use it to verify application-level signatures,
      e.g. attestation reports). *)
end
