(** ei_race rules engine: typed analysis over the [.cmt] typedtrees
    dune produces — the concurrency discipline and exports without a
    caller.

    Rule families: [unguarded-state] / [unguarded-access] (every
    module-level and record-level mutable datum must be atomic,
    lock-guarded — [@ei.guarded_by "<lock>"] — or confined —
    [@ei.single_domain]; a [@ei.version_word] field is a mutable int at
    field 0 touched only by externals marked
    [@@ei.version_word "get" | "compare_and_set" | "set"], which count
    as those Atomic operations), [lock-leak] / [lock-divergent] /
    [lock-raise] / [lock-loop] (every acquired write lock is released
    exactly once on every exit, including exception edges),
    [yield-point] (sync-touching retry loops must contain a
    [Fault.point] site so the ei_sim scheduler can interleave them),
    and [atomic-rmw] ([Atomic.set a (f (Atomic.get a))] outside a
    lock-held region).  Findings carry a stable [slug] (the enclosing
    top-level binding) used as the baseline suppression key.  The
    export rules, [dead-export] and [test-only-export], are
    {!dead_exports}. *)

type finding = { diag : Report.diag; slug : string }

type inv_entry = {
  inv_file : string;
  inv_line : int;
  inv_name : string;
  inv_kind : string;
      (** atomic | mutex | condition | ref | array | table |
          mutable-field | array-field | version-word *)
  inv_guard : string option;  (** rendered annotation, [None] = bare *)
}

type result = { findings : finding list; inventory : inv_entry list }

val load_cmt : string -> (string * Typedtree.structure) option
(** Read one [.cmt]; [Some (source_path, typedtree)] for an
    implementation, [None] for interfaces, generated alias modules and
    unreadable files. *)

val analyze_cmts : string list -> result
(** Load every [.cmt] path, build the cross-module annotation registry,
    and run all rule families over each implementation, in source-path
    order. *)

val finding_key : finding -> string
(** The baseline key: ["rule file slug"] — stable across line-number
    churn. *)

val parse_baseline : string -> string list
(** Baseline file contents -> entry keys ([#] comments and blank lines
    dropped). *)

val apply_baseline :
  baseline:string list -> finding list -> finding list * int * string list
(** [(remaining, suppressed_count, unused_entries)]. *)

val rules_help : unit -> string
(** One line per rule, for [--rules]. *)

val dead_exports :
  interfaces:string list -> prod:string list -> test:string list ->
  finding list
(** [dead-export] / [test-only-export]: every top-level [val] of the
    [.cmti]s in [interfaces] that no unit among the [prod] [.cmt]s
    references ([dead-export] when the [test] units do not either).
    Paths are followed through module aliases; a whole-unit use (a
    functor argument, a first-class module, an [include]) uses every
    value.  The slug is the value's name. *)
