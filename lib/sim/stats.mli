(** Statistics used by monitors and the property-interpretation module. *)

(** Fixed-width histograms, e.g. the 30 x 1 ms CPU-burst-interval bins held
    in Trust Evidence Registers (paper section 4.4.2). *)
module Histogram : sig
  type t

  val create : bins:int -> width:float -> t
  (** [create ~bins ~width] covers [(0, bins*width]]; bin [i] counts samples
      in [(i*width, (i+1)*width]].  Samples beyond the range clamp to the
      outermost bin, as the paper's registers do for long bursts. *)

  val add : t -> float -> unit
  val count : t -> int -> int
  val total : t -> int

  val distribution : t -> float array
  (** Normalised to sum to 1 (all zeros when empty). *)

  val of_counts : width:float -> int array -> t
  val merge : t -> t -> t
end

(** Running summary statistics. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  val stddev : t -> float
end

(** Bounded-memory sample reservoir with deterministic merging.  Holds at
    most [cap] retained samples (Algorithm R) while tracking count, sum,
    min and max exactly, so mean and extrema are always exact and
    percentiles are exact until the cap is exceeded.  Two reservoirs merge
    into one of the same cap by weighted subsampling, which is what lets
    per-shard latency series combine across a 10^5-VM fleet without ever
    concatenating raw samples.  All sampling randomness comes from the
    reservoir's own seeded prng: a fixed add/merge order reproduces the
    reservoir bit-for-bit, independent of host parallelism. *)
module Reservoir : sig
  type t

  val create : ?cap:int -> seed:int -> unit -> t
  (** Default cap 8192. *)

  val add : t -> float -> unit

  val n : t -> int
  (** Total observations (not bounded by cap). *)

  val retained : t -> int
  (** Samples currently held, [<= cap]. *)

  val exact : t -> bool
  (** True while every observation is retained (percentiles exact). *)

  val mean : t -> float
  (** Exact (from the running sum); 0 when empty. *)

  val min : t -> float
  val max : t -> float
  (** Exact extrema; [nan] when empty. *)

  val percentile : t -> float -> float
  (** Nearest-rank over the retained sample; [nan] when empty. *)

  val merge_into : t -> t -> unit
  (** [merge_into a b] folds [b]'s population into [a] ([b] unchanged).
      Count/sum/extrema merge exactly; retained samples concatenate when
      they fit in [a]'s cap and are weighted-subsampled otherwise, drawing
      only from [a]'s prng. *)
end

(** Time-weighted level tracking (queue depths, in-service counts).  The
    caller reports every level change with its timestamp; the gauge keeps
    the peak and the time-weighted mean. *)
module Gauge : sig
  type t

  val create : unit -> t

  val set : t -> now:float -> int -> unit
  (** [set t ~now v] records that the level became [v] at time [now].
      Timestamps must be non-decreasing. *)

  val peak : t -> int

  val time_weighted_mean : t -> now:float -> float
  (** Mean level over [\[0, now\]], treating the level as held constant
      between [set] calls (0 before the first). *)
end

(** Aligned per-tick fraction series (e.g. fraction of the fleet holding a
    fresh verdict at each monitor tick).  Each tick records an exact
    (numerator, denominator) pair; two series merge index-aligned, so
    per-shard series whose ticks fire at the same absolute simulated times
    combine into the fleet-wide fraction per tick — deterministically,
    whatever the shard-to-domain assignment was. *)
module Fraction_series : sig
  type t

  val create : unit -> t

  val record : t -> num:int -> den:int -> unit
  (** Append one tick.  Requires [0 <= num <= den]. *)

  val merge_into : t -> t -> unit
  (** [merge_into a b] adds [b]'s tick [k] into [a]'s tick [k] ([b]
      unchanged); [a] grows when [b] is longer. *)

  val min_fraction : t -> float
  val mean_fraction : t -> float
  val final_fraction : t -> float
  (** Over ticks with a nonzero denominator; [nan] when there are none. *)
end

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0,100], nearest-rank on a sorted copy. *)

(** One-dimensional 2-means clustering, used to decide whether an interval
    distribution is bimodal (covert channel) or unimodal (benign). *)
module Two_means : sig
  type result = {
    centers : float * float;  (** low and high cluster centers *)
    weights : float * float;  (** probability mass of each cluster *)
    separation : float;  (** |c2 - c1| / bin range, in [0,1] *)
  }

  val cluster : values:float array -> mass:float array -> result option
  (** [cluster ~values ~mass] runs weighted 2-means on points [values] with
      weights [mass].  [None] when total mass is zero. *)

  val bimodal : ?min_separation:float -> ?min_weight:float -> result -> bool
  (** A distribution counts as bimodal when the clusters are far apart and
      both carry non-trivial mass. *)
end
