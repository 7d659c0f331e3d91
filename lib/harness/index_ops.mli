(** A uniform first-class interface over every ordered index in the
    repository, so workload drivers, the MCAS table plugin, benchmarks
    and examples are written once. *)

(** The concrete structure behind the closures.  {!Ei_check} dispatches
    its deep validators on this. *)
type backend =
  | B_btree of Ei_btree.Btree.t
  | B_elastic of Ei_core.Elastic_btree.t
  | B_radix of Ei_baselines.Radix.t
  | B_skiplist of Ei_baselines.Skiplist.t
  | B_hybrid of Ei_baselines.Hybrid.t
  | B_elastic_skiplist of Ei_core.Elastic_skiplist.t
  | B_olc of Ei_olc.Btree_olc.t
  | B_composite of t array
      (** a router composed over sub-indexes (e.g. the shard fleet);
          validators recurse into the parts *)

and t = {
  name : string;
  backend : backend;
  key_len : int;  (** length in bytes of every key the index accepts *)
  insert : string -> int -> bool;
  remove : string -> bool;
  update : string -> int -> bool;  (** in-place value overwrite *)
  find : string -> int option;
  multi_find : string array -> int option array;
      (** batched point lookup: slot [i] is [find keys.(i)].  Backends
          with a native group-descent path (B+-tree, OLC) overlap the
          per-level node fetches; the rest run a [find] loop *)
  scan : string -> int -> int;
      (** [scan start n] visits up to [n] entries with key >= start and
          returns how many were visited; each visited key is
          materialised (the included-column access pattern of §2) *)
  scan_keys : string -> int -> (string -> int -> unit) -> int;
      (** like [scan] but hands each visited entry's key and tid to the
          callback — the included-column query path of §2.  A callback
          must not call [find]: on an expanding elastic tree a search
          may split the leaf being walked (§4) *)
  memory_bytes : unit -> int;
  count : unit -> int;
  set_size_bound : int -> unit;
      (** retune the elastic soft bound on a live index; no-op for
          inelastic indexes — the uniform lever the global memory
          coordinator pulls *)
  info : unit -> string;  (** index-specific status, e.g. elastic state *)
}

val no_size_bound : int -> unit
(** The no-op [set_size_bound] for inelastic indexes. *)

val inject : site:Ei_fault.Fault.site -> t -> t
(** [inject ~site ix] is [ix] whose point operations (insert / remove /
    update / find) first draw at the fault site and raise
    {!Ei_fault.Fault.Injected} when it fires — transient op failure a
    caller is expected to absorb or retry.  The backend is unchanged,
    so deep validators still reach the real structure. *)

val observed : prefix:string -> t -> t
(** [observed ~prefix ix] is [ix] whose operations (insert / remove /
    update / find / scan) are timed into per-op latency histograms
    named [<prefix>.<op>_ns] in the {!Ei_obs.Metrics} registry.  The
    backend is unchanged.  One atomic load per op while the registry is
    disabled. *)

val traced : t -> t
(** [traced ix] is [ix] whose operations each run under a freshly
    minted root {!Ei_obs.Ctx} span context (cleared afterwards, on
    the exception path too), so histogram exemplars and trace events
    recorded beneath them carry a trace id.  For drivers that call
    the index directly; {!Ei_shard.Serve} mints its own contexts.
    One atomic load per op while tracing is disabled. *)

val fingerprint_entry : int -> string -> int -> int
(** [fingerprint_entry h key tid] chains one [(key, tid)] pair into the
    FNV-1a digest [h] (start from [0]) — the one step {!fingerprint},
    WAL checkpoints and their validation all fold. *)

val fingerprint : t -> int
(** Order-sensitive digest of the full contents — {!fingerprint_entry}
    over every [(key, tid)] pair in key order, walked once by
    [scan_keys] from the all-zero key.  Two indexes over the same
    logical map fingerprint equally whatever their physical layout;
    this is the checkpoint equality of the ei_sim differential engine.
    Read-only (no [find], so no elastic state steps), but quiescent use
    only: it walks the live structure. *)

val of_btree : string -> Ei_btree.Btree.t -> t
val of_elastic : string -> Ei_core.Elastic_btree.t -> t
val of_radix : string -> Ei_baselines.Radix.t -> t
val of_skiplist : string -> Ei_baselines.Skiplist.t -> t
val of_hybrid : string -> Ei_baselines.Hybrid.t -> t
val of_elastic_skiplist : string -> Ei_core.Elastic_skiplist.t -> t

val of_olc : string -> Ei_olc.Btree_olc.t -> t
(** The OLC tree behind the uniform interface.  [memory_bytes] reports
    the atomically tracked size for elastic trees (safe under
    concurrency) and falls back to a full traversal otherwise. *)
