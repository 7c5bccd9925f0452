(** Bounded attestation-request queue with priority classes.

    Three classes, strictly ordered: customer-triggered one-time requests
    outrank periodic monitoring rounds, which outrank post-response
    re-checks.  Within a class, FIFO.

    Admission control: a push into a full queue sheds load from the {e
    lowest}-priority non-empty class that is strictly lower-priority than
    the arrival (evicting that class's oldest entry); if nothing queued is
    lower-priority, the arrival itself is rejected.  The caller learns
    exactly what was shed, so it can fail those requests and count them. *)

type priority = Customer | Periodic | Recheck

val rank : priority -> int
(** 0 = highest (Customer). *)

val all_priorities : priority list

type 'a t

type 'a admission =
  | Enqueued
  | Evicted of priority * 'a  (** accepted; this lower-priority entry was shed *)
  | Rejected  (** queue full of same-or-higher-priority work *)

val create : depth:int -> 'a t
(** [depth] must be positive: total entries across all classes. *)

val push : 'a t -> priority -> 'a -> 'a admission
val pop : 'a t -> (priority * 'a) option
(** Highest-priority class first, FIFO within the class. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val length_of : 'a t -> priority -> int
