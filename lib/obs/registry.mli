(** A process-wide metric registry that is safe to update from pool
    worker domains: every mutation is a single [Atomic] operation (or a
    CAS retry loop for float accumulation), so concurrent increments
    are never lost and no lock is ever taken on a hot path. Locks exist
    only around registration and export, which are cold.

    Naming convention (see README "Observability"): [stc_<area>_<what>]
    with a [_total] suffix for counters and an [_s] suffix for
    latency histograms, e.g. [stc_pool_tasks_total],
    [stc_floor_batch_s]. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A standalone (unregistered) counter — used for per-instance
      statistics like [Floor.stats] that must survive concurrent
      increments but do not belong in the process-wide export. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** [add] with a negative amount raises [Invalid_argument]: counters
      are monotone by construction. *)

  val get : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val get : t -> float
end

module Histogram : sig
  type t

  val default_buckets : float array
  (** Exponential latency buckets, 1 µs .. 100 s. *)

  val make : ?buckets:float array -> unit -> t
  (** [buckets] are the inclusive upper bounds of each bucket, strictly
      increasing and finite; an implicit overflow bucket catches the
      rest. Raises [Invalid_argument] otherwise. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val bucket_counts : t -> (float * int) array
  (** One [(upper_bound, count)] per bucket, non-cumulative, the
      overflow bucket last as [(infinity, count)]. The counts sum to
      {!count} whenever the histogram is quiescent. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Runs the thunk and observes its wall-clock duration (also on
      exception). *)
end

type t
(** A registry: a name-keyed set of metrics. *)

val create : unit -> t

val global : t
(** The process-wide registry every instrumented module records into. *)

(** Metric lookups intern by name: the first call creates the metric,
    later calls return the same object. Requesting an existing name as
    a different kind raises [Invalid_argument]. Names must be non-empty
    and contain no whitespace. *)

val counter : ?registry:t -> string -> Counter.t
val gauge : ?registry:t -> string -> Gauge.t

val histogram : ?registry:t -> ?buckets:float array -> string -> Histogram.t
(** [buckets] only applies on first creation; later lookups ignore it. *)

val reset : ?registry:t -> unit -> unit
(** Zeroes every registered metric (counts, sums, buckets, gauges).
    For test isolation and bench sections; not for production paths. *)

val flatten : ?registry:t -> unit -> (string * float) list
(** Every metric as name–value pairs, sorted by name: a counter or
    gauge is one pair; a histogram [h] becomes [h.count], [h.sum] and
    one [h.le_<bound>] pair per bucket ([h.le_inf] for overflow). This
    is the canonical scalar view used for export round-trips and bench
    section deltas. *)

val to_text : ?registry:t -> unit -> string
(** The [stc-metrics-1] text format: a header line, then one line per
    metric, sorted by name —
    [counter <name> <value>], [gauge <name> <value>], or
    [hist <name> <count> <sum> <bound>:<n> ... inf:<n>].
    Floats are printed with enough digits to round-trip exactly. *)

val parse_text : string -> ((string * float) list, string) result
(** Parses {!to_text} output back to the {!flatten} view. For any
    registry [r], [parse_text (to_text ~registry:r ())] equals
    [Ok (flatten ~registry:r ())] while [r] is quiescent. *)

