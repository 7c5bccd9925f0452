(** Attestation Client — the host-VM daemon on each secure cloud server
    (the "oat client" + Monitor Kernel + Trust Module glue of Figure 2).

    Served on the network at ["att:<server-name>"], behind a secure
    channel authenticated with the server's identity key.  For each
    measurement request it: generates a fresh session attestation keypair
    in the Trust Module, collects the requested measurements through the
    Monitor Kernel (loading the Trust Evidence Registers), computes the
    quote Q3, signs the payload with the session key, and returns the
    response together with the endorsement the privacy CA needs. *)

type t

val create :
  ca:Net.Ca.t ->
  seed:string ->
  ?key_bits:int ->
  Hypervisor.Server.t ->
  (t, [ `Not_secure ]) result
(** Fails on servers without a Trust Module.  Registers nothing: {!Cloud}
    serves {!request_handler} at {!address_of} the server, accepting only
    the AS of the server's cluster (paper Fig. 3: only the AS tasks a cloud
    server). *)

val identity : t -> Net.Secure_channel.Identity.t
(** The channel identity, certified under the server's name. *)

val request_handler : t -> peer:string -> string -> string
(** The on-request function for the client's secure channel: answers one
    single or batched measurement request (recognised by its wire magic). *)

val address_of : string -> string
(** [address_of server_name] is the network address of that server's
    attestation client. *)

val measurement_cost : backend:Tpm.Backend.kind -> Protocol.measure_request -> Sim.Time.t
(** Simulated server-side cost of serving a request: session key
    generation, per-measurement collection, quote signing.  [backend]
    selects the per-backend keygen/sign terms. *)

val batch_measurement_cost :
  backend:Tpm.Backend.kind -> Protocol.batch_measure_request -> Sim.Time.t
(** Simulated cost of a batched round: one session keygen + one root
    signature for the whole batch ({!Core.Costs.batch_quote_cost_for}), plus
    per-measurement collection.  The client answers batch requests on the
    same channel as single ones, distinguished by the wire magic. *)
