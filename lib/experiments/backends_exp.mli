(** Trust-backend comparison and lifecycle gates.

    One heterogeneous fleet smoke run (three AS shards, one per backend
    kind, served throughput split per backend), an e-vTPM
    migrate-without-rebind campaign whose restored-state attestations must
    all come back Compromised until the Privacy-CA rebind, and a CVM cloud
    whose hardware reports verify against the vendor platform root alone.

    Exit-status material: {!clean} is false whenever a backend of the
    fleet mix served nothing, a stale-state quote verified Healthy, a
    rebind failed to recover, or a CVM report did not verify. *)

type campaign = {
  cycles : int;
  healthy_fresh : int;  (** fresh attestations before any save/restore *)
  stale_attests : int;  (** attestations issued against restored state *)
  healthy_after_stale : int;  (** MUST be 0 *)
  compromised_after_stale : int;
  rebinds : int;
  healthy_after_rebind : int;
}

type cvm_check = { attests : int; healthy : int; root_present : bool }

type result = {
  seed : int;
  fleet : Fleet.Driver.result;
  campaign : campaign;
  cvm : cvm_check;
}

val run : ?seed:int -> unit -> result
val clean : result -> bool
val print : result -> unit
val to_json : result -> Json.t
