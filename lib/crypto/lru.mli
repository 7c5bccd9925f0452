(** A small string-keyed LRU cache with hit/miss counters.

    Backs the RSA verification memo: lookups promote the entry to
    most-recently-used, and inserting past capacity evicts the
    least-recently-used entry.  Not thread-safe. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Promotes the entry on hit; counts a miss otherwise. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite, promoting to most recent; evicts the LRU entry
    when the cache is full. *)

val length : 'a t -> int

val hits : 'a t -> int
val misses : 'a t -> int
(** Cumulative [find] outcomes since creation (or the last [clear]). *)

val clear : 'a t -> unit
(** Drop all entries and reset the counters. *)
