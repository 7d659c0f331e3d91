(** ei_obs metrics registry: counters, gauges and log-bucketed latency
    histograms, sharded per domain and merged on read.

    Every recording call is a no-op (one atomic load + branch) until
    {!set_enabled}[ true]; when enabled, recording is a single atomic
    increment on a per-domain cell, so concurrent domains never lose
    counts and rarely contend.  Handles are interned by name —
    constructing the same metric twice returns the same cells. *)

val set_enabled : bool -> unit
(** Master switch for all recording (counters, gauges, histograms).
    Off by default. *)

val enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Interned by name; dotted names ([serve.batches]) group related
    metrics and map to [ei_serve_batches] in Prometheus exposition. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Merged total across the per-domain cells. *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit

val add_gauge : gauge -> int -> unit
(** Atomically add a (possibly negative) delta — for level gauges
    moved by concurrent writers, e.g. open-connection counts. *)

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Power-of-two-bucketed histogram; values are nanoseconds by
    convention but any non-negative int works (bucket [i] holds
    [2{^i} .. 2{^i+1}-1]; bucket 0 also absorbs 0). *)

val observe : histogram -> int -> unit
(** Record a value: bucket + sum increments, min/max watermark
    relaxation, and — when an ambient {!Ctx} trace is installed — the
    bucket's exemplar is updated to that trace id. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val histogram_min : histogram -> int
(** Smallest value ever observed (since the last reset); 0 when
    empty. *)

val histogram_max : histogram -> int
(** Largest value ever observed (since the last reset); 0 when
    empty. *)

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [0, 1]: linear interpolation inside the
    log2 bucket containing the rank-[ceil (q*n)] sample, clamped to the
    observed min/max watermarks — a single-sample histogram reports the
    sample itself.  0 when the histogram is empty. *)

val quantile_exemplar : histogram -> float -> int
(** The trace id most recently observed into the bucket where
    [quantile h q]'s rank falls — a Prometheus-style exemplar pointing
    from a latency quantile into the trace ring.  0 when unknown. *)

val reset_histogram : histogram -> unit

(** {1 Probes} *)

val register_probe : string -> (unit -> int) -> unit
(** Fold an externally-maintained counter into the export surface; the
    callback is evaluated at dump time.  Re-registering a name replaces
    the callback. *)

(** {1 Lifecycle and export} *)

val reset : unit -> unit
(** Zero every registered counter, gauge and histogram (probes are
    external and not touched). *)

val dump_prometheus : unit -> string
(** Text exposition: counters, gauges, probes-as-gauges, histograms as
    summaries with p50/p90/p99/p999 quantile lines. *)

val dump_json : unit -> string
(** One JSON object: [{"counters": {..}, "gauges": {..}, "probes":
    {..}, "histograms": {name: {count, sum, min_ns, max_ns, p50_ns,
    ..., p999_exemplar?}}}] — exemplar fields appear only for
    quantiles whose bucket recorded a trace id. *)

(** {1 Registry listings}

    Stable name-sorted views of the registry for snapshot engines
    ({!Timeline}): counters and gauges as values, histograms as live
    handles so bucket arrays can be delta'd between frames. *)

val counters_list : unit -> (string * int) list
val gauges_list : unit -> (string * int) list
val histograms_list : unit -> (string * histogram) list

val histogram_buckets : histogram -> int array
(** A fresh merged copy of the per-domain bucket rows. *)

(**/**)

val bucket_of : int -> int
val bucket_upper : int -> int
(** Exposed for the test suite: the bucket index of a value and a
    bucket's inclusive upper bound. *)

val quantile_of_buckets : ?lo:int -> ?hi:int -> int array -> float -> int
(** Quantile over a raw (merged or delta'd) bucket array, interpolated
    and clamped to [lo]/[hi] when given — what {!Timeline} uses on
    windowed bucket deltas. *)
