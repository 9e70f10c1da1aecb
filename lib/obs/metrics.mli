(** A registry of named counters, gauges, and histograms.

    One registry per run (or per trial batch — counters accumulate across
    attached processes, so a multi-trial sweep sums naturally).  A counter
    bump is one atomic add, a histogram observation a bucket scan over a
    handful of bounds under the histogram's lock.

    {!snapshot} serialises the whole registry to a deterministic JSON value
    (instruments sorted by name), which is what [eproc --metrics FILE]
    writes and what the trace-determinism tests compare.

    All operations are safe under concurrent use from several domains (the
    trial sweeps of [Ewalk_expt.Sweep] run inside [Ewalk_par.Pool]):
    counters and gauges are lock-free atomics, histograms and the registry
    are mutex-guarded.  Counter increments from different domains are exact
    (never lost).  A gauge set with plain {!set} holds the last value
    {e some} domain wrote; writers that need a deterministic final value
    under parallel sweeps use {!set_at} with a total order (e.g. the trial
    index), which resolves races as last-by-sequence regardless of domain
    scheduling.

    Per-step hot paths do not update instruments directly: they count in
    plain ints of their own and publish batches with {!add} and
    {!hist_merge} ([Ewalk.Observe] drains every 4096 steps), so a read
    sees what has been published. *)

type t
(** The registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val with_label : string -> key:string -> value:string -> string
(** [with_label name ~key ~value] is the canonical name-encoding of a
    labelled series in this name-keyed registry:
    ["<name>_<key>_<value>"], with [value] sanitised to the OpenMetrics
    name alphabet ([[a-zA-Z0-9_:]]; anything else becomes [_]).  The
    multi-walker kernel publishes per-walker counters this way
    ([blue_steps_walker_3]). *)

val counter : t -> string -> counter
(** [counter t name] registers (or retrieves — same name, same instrument)
    a monotonically increasing integer counter starting at 0. *)

val gauge : t -> string -> gauge
(** A float-valued instrument holding the last value set. *)

val histogram : ?buckets:float array -> t -> string -> histogram
(** A cumulative histogram over the given ascending upper bounds (an
    implicit [+inf] bucket is always appended).  Default buckets are
    powers of two [1, 2, 4, ..., 2^20] — sized for phase lengths and other
    step-count-valued observations.  [buckets] is validated (and used)
    only when [name] is not yet registered; retrieving an existing
    histogram ignores it.
    @raise Invalid_argument on first registration if [buckets] is empty or
    not increasing. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the running maximum of the values set. *)

val set_at : gauge -> seq:int -> float -> unit
(** [set_at g ~seq x] writes [x] unless the gauge already holds a value
    stamped with a strictly greater [seq].  With [seq] = trial index, the
    final gauge value is the last trial's — deterministic across [--jobs],
    unlike plain {!set} under a parallel sweep.  Plain {!set} writes are
    stamped lowest and never displace a [set_at] value. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val hist_bounds : histogram -> float array
(** The finite ascending upper bounds (a copy). *)

val hist_merge :
  histogram ->
  bucket_counts:int array ->
  count:int ->
  sum:float ->
  min:float ->
  max:float ->
  unit
(** Merge a pre-aggregated batch of observations under the histogram
    lock.  [bucket_counts] must have length
    [Array.length (hist_bounds h) + 1] (trailing [+inf] bucket).  A batch
    with [count = 0] is a no-op.
    @raise Invalid_argument on layout mismatch or negative count. *)

val hist_count : histogram -> int
(** Total number of observations. *)

val hist_sum : histogram -> float

type view =
  | Counter_view of int
  | Gauge_view of float
  | Histogram_view of {
      hv_count : int;
      hv_sum : float;
      hv_buckets : (float * int) array;
          (** (finite upper bound, count in that bucket) — per-bucket, not
              cumulative *)
      hv_inf : int;  (** observations above the last bound *)
    }

val instruments : t -> (string * view) list
(** A consistent, name-sorted snapshot of every registered instrument —
    the exporter's ({!Export}) view of the registry.  Histogram fields are
    copied under the histogram's own lock. *)

val snapshot : t -> Json.t
(** Deterministic snapshot:
    [{"counters":{..},"gauges":{..},"histograms":{name:{"count","sum",
    "min","max","buckets":[{"le","count"},..]}}}] with names sorted. *)

val to_json_string : t -> string
(** [Json.to_string (snapshot t)]. *)

val write_file : t -> string -> unit
(** Write the snapshot (plus a trailing newline) to a file, atomically
    enough for our purposes ([Fun.protect]-guarded channel). *)
