(** Typed metrics registry: counters, gauges, and fixed-bucket log-scale
    histograms.

    One registry serves the whole runtime stack (network simulator,
    channel, schedulers, bench harness).  Instead of keeping every
    observed sample, a histogram is a fixed array of geometrically
    spaced buckets: O(1) memory, O(1) observe, O(buckets) merge and
    quantile.

    {2 Histogram design}

    Buckets grow by ratio 1.05 covering [1e-9, 1e9], with an underflow
    and an overflow bucket at the ends (values outside the tracked range
    are counted there and still contribute exactly to n/sum/min/max).
    Quantiles use the nearest-rank definition: the value reported for
    [quantile p] is the geometric midpoint of the bucket containing the
    sample of rank [ceil (p * n)], clamped to the exact observed
    [min, max].  The relative error versus the exact nearest-rank sample
    is therefore at most [sqrt 1.05 - 1 < 2.5%] inside the tracked
    range.  The test suite checks that bound against an exact
    per-sample nearest-rank oracle.

    The buckets are filled lazily.  {!record} updates n, sum, min and
    max at once and appends the sample to a buffer of at most 256
    floats; the buffer is bucketed on the first read (a quantile,
    {!merge}, {!to_json}, {!pp}) or when it fills.  A bucket count does
    not depend on when its sample was bucketed, so every figure is the
    one eager bucketing gives, and a registry that records a few
    hundred samples and is never read allocates no bucket array.

    {2 Registry}

    Counters are keyed: each counter name is numbered once per process
    ({!key}), and a registry is an int array indexed by that number plus
    the set of numbers it holds.  Hot paths take a name's key once, at
    module initialisation, resolve it on a registry into a {!counter}
    and bump through that: no name is hashed in a run.  [incr]/[add]
    take a name and look its key up.  Names appear only where a
    registry is read out ({!to_json}, {!pp}, {!For_testing.counters}).
    Gauges ([gauge_max]) and histograms stay name-keyed.  Names live in
    disjoint namespaces per type; reusing a counter name as a histogram
    creates two metrics.  Histograms are recorded through a
    {!histogram_handle} only. *)

type t

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}
(** Percentiles are histogram approximations (see above),
    n/mean/min/max are exact. *)

val create : unit -> t

(** {2 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val count : t -> string -> int
(** 0 for never-touched counters. *)

type key
(** A counter name's process-wide number. *)

val key : string -> key
(** The name's number, assigned on its first use in the process.
    Callers on a hot path take it once, at module initialisation. *)

type counter
(** A counter resolved once on a registry: a bump is an array update. *)

val counter : t -> key -> counter
(** [counter t k] resolves the handle without registering anything:
    a counter that is never bumped stays absent from
    {!For_testing.counters} and {!to_json}, exactly as if [incr] had
    never been called.  Handles and the string API address the same
    cell, and two registries never share one. *)

val bump : counter -> unit
(** [incr] through a handle. *)

val bump_by : counter -> int -> unit
(** [add] through a handle; [bump_by c 0] registers the counter, like
    [add t name 0]. *)

(** {2 Gauges} *)

val gauge_max : t -> string -> float -> unit
(** High-watermark gauge: keep the maximum of the values seen.  Shared
    by the flow controller ([flow_max_*]) and the fleet engine
    ([fleet_*] peaks). *)

(** {2 Histograms} *)

type histogram_handle
(** A histogram resolved once (see {!counter}). *)

val histogram : t -> string -> histogram_handle
(** Registers nothing until the first non-NaN sample is recorded. *)

val record : histogram_handle -> float -> unit
(** Record a sample.  NaN samples are dropped. *)

(** {2 Aggregation and export} *)

val merge : t -> t -> t
(** Pointwise union: counters add, histograms add bucket-wise (n, sum
    exact; min/max combine exactly), gauges keep the maximum (gauges
    are level indicators — e.g. makespan — where max is the meaningful
    cross-run aggregate).  O(total metrics), independent of how many
    samples were observed; associative and commutative up to float
    rounding of sums. *)

val to_json : t -> string
(** One JSON object: [{"counters":{...},"gauges":{...},
    "histograms":{name: {n,mean,min,max,p50,p95,p99}}}], keys sorted. *)

val pp : Format.formatter -> t -> unit

(** {2 Test hooks} *)

module For_testing : sig
  val counters : t -> (string * int) list
  (** All counters, sorted by name. *)

  val gauge : t -> string -> float option
  val gauges : t -> (string * float) list

  val quantile : t -> string -> float -> float
  (** [quantile t name p] with [p] clamped to [0, 1]; [nan] when the
      histogram is empty or unknown.  [p <= 0] is the exact min,
      [p >= 1] the exact max. *)

  val summarize : t -> string -> summary
  (** All-zero/[nan] summary for unknown names. *)

  val histogram_names : t -> string list
end
