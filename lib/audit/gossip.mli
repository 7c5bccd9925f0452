(** STH gossip over the simulated network.

    Tree heads travel as standalone signed datagrams through
    {!Net.Network}, which puts them in reach of the Dolev-Yao adversary
    position and the {!Net.Fault} adversaries: a garbled head fails its
    signature check (or does not decode) and is ignored; a dropped head
    misses one round and is re-sent at the next cadence, so message loss
    delays detection by at most one gossip interval — it never prevents
    it. *)

val register : Net.Network.t -> Auditor.t -> unit
(** Install the auditor's gossip handler: decodes incoming heads and feeds
    them to {!Auditor.note}; undecodable payloads are dropped silently. *)

val announce : Net.Network.t -> src:string -> dst:string -> Sth.t -> unit
(** Send one head to a peer auditor (by auditor name), fire-and-forget. *)

val broadcast : Net.Network.t -> Auditor.t -> dst:string -> unit
(** Send every trusted head to a peer auditor (by auditor name). *)
