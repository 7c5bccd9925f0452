(** Shared last-level cache model.

    Co-resident VMs contend for the same cache sets, which is the medium of
    prime-probe covert and side channels (the paper's section 4.4 cites
    cache channels as the classic instance; CloudMonatt's extension point
    is monitoring {e multiple} covert-channel sources).

    The model is architectural, not timing-accurate: each set is an LRU
    list of [(owner, tag)] lines; an access either hits or misses (and
    fills).  Every miss is charged to the owner's current time window, so
    the Monitor Module can read a per-VM series of window miss counts —
    the raw material for pattern-based channel detection. *)

type t

val create : engine:Sim.Engine.t -> ?ways:int -> unit -> t
(** 64 sets of [ways] lines (default 8), with 10 ms accounting windows. *)

val ways : t -> int

val access : t -> owner:string -> set:int -> tag:int -> bool
(** Access line [tag] in [set]; [true] on a miss (which fills the line,
    evicting the LRU one). *)

val fill_set : t -> owner:string -> set:int -> unit
(** Occupy every way of [set] with the owner's lines — the "prime" (or the
    sender's "thrash") step. *)

val probe : t -> owner:string -> sets:int list -> int
(** Re-access the owner's canonical lines in each set, counting misses
    (i.e. lines some other VM evicted) and re-filling them — the "probe"
    step.  Returns the total miss count. *)

val misses : t -> owner:string -> int
(** Total misses charged to this owner so far. *)

val miss_windows : t -> owner:string -> since:Sim.Time.t -> int array
(** Per-window miss counts from [since] (inclusive) up to now; windows with
    no activity are zero. *)

val forget_owner : t -> string -> unit
(** Drop an owner's lines and counters (VM terminated or migrated away). *)
