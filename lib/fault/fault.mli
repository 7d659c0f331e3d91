(** Deterministic, seed-driven fault injection.

    Failure as a first-class, seed-reproducible input: code registers
    named injection {e sites}; a run-wide plan maps site names to
    firing probabilities; each site draws from its own splitmix64
    stream derived from [(seed, Fnv.hash name)].  The fault schedule is
    a pure function of the seed and each site's call sequence — never
    of wall-clock time or domain interleaving — so a failing run
    replays exactly from its seed.

    With no plan configured (the initial state), every site check is a
    single atomic load. *)

exception Injected of string
(** Raised by {!inject} with the site name: a transient, attributable
    fault (distinct from {!Ei_util.Invariant.Broken}, which signals
    real corruption). *)

type site

val configure : seed:int -> (string * float) list -> unit
(** Install a fault plan and (re)seed every site.  Each binding is
    [(key, probability)]; a key arms a site when its dot-separated
    segments are a prefix of the site name's, with ["*"] matching any
    one segment: ["serve.crash"] arms ["serve.crash.shard3"], and
    ["serve.queue.*.drop"] arms every shard's drop site.  Later
    bindings override earlier ones.  Resets all site counters and
    streams — also the reset lever for reproducibility tests. *)

val clear : unit -> unit
(** Remove the plan: every site becomes inert (initial state). *)

val enabled : unit -> bool
(** A non-empty plan is installed. *)

val site : string -> site
(** Register (or fetch) the site with this name.  Sites are global and
    idempotent: the same name always yields the same site. *)

val fire : site -> bool
(** Draw at this site: [true] if the fault fires.  Inert without a
    plan.  Thread-safe; per-site call order is the determinism unit, so
    keep a site's traffic on one domain for exact replay.  Invokes the
    installed {!set_tap} callback (if any) before drawing. *)

val point : site -> unit
(** A pure preemption point: never draws, never fires, only invokes the
    installed {!set_tap} callback with the site name.  Without a tap
    this is a single atomic load — the hook production code (OLC tree,
    Serve) exposes to the simulation scheduler at no new dependency and
    near-zero cost. *)

val set_tap : (string -> unit) option -> unit
(** Install (or remove, with [None]) the scheduler tap invoked at every
    {!point} and at the entry of every {!fire}.  The callback runs
    while holding no Fault lock, so it may suspend the caller (ei_sim
    parks the calling fiber via an effect).  Process-global: only one
    harness may drive taps at a time. *)

val inject : site -> unit
(** [fire] and raise {!Injected} with the site name when it fires. *)

val name : site -> string

val stats : unit -> (string * int * int) list
(** [(name, calls, fired)] for every site with traffic, sorted by name
    — the fault schedule digest two equal-seed runs must agree on. *)

val parse_plan : string -> ((string * float) list, string) result
(** Parse a ["site=prob,site=prob"] spec (CLI support).  Probabilities
    must lie in [[0, 1]]. *)
