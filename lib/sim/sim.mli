(** Deterministic simulation testing: differential tapes against a
    pure oracle, schedule exploration over the production yield points,
    and ddmin shrinking to replayable [.sim.json] artifacts.

    Every failure replays from a seed or an artifact; see {!Tape},
    {!Oracle}, {!Sched} for the building blocks. *)

(** {2 Subjects} *)

type subject = {
  s_name : string;
  s_elastic : bool;
      (** bound compliance is checkable at checkpoints *)
  s_make : Ei_storage.Table.t -> Ei_harness.Index_ops.t;
}

val subject :
  name:string ->
  elastic:bool ->
  (Ei_storage.Table.t -> Ei_harness.Index_ops.t) ->
  subject
(** Wrap any index constructor as a sim subject (used by tests to plant
    deliberately buggy branches). *)

val subject_names : string list

val subject_of_name :
  ?bound:int -> key_len:int -> string -> (subject, string) result
(** Named subjects for the CLI and artifacts: ["oracle"], the pure
    sorted-map reference ({!Oracle}), or any
    {!Ei_harness.Registry.kind_of_name} name, elastic exactly when the
    kind is.  [bound] seeds the elastic configs (default 1 MiB). *)

(** {2 Differential engine} *)

type trace = string array
(** One result string per tape op, plus a final implicit checkpoint. *)

val run_tape : ?slack:float -> ?check_mem:bool -> subject -> Tape.t -> trace
(** Replay the tape through the subject.  Pure in the tape: fault
    windows re-seed the global plan from (tape seed, window ordinal),
    table appends are positional, checkpoints walk the structure with
    the unwrapped index.  [check_mem] (with [slack], default 3.0) makes
    checkpoints record whether [memory_bytes <= slack * bound]. *)

type divergence = { d_index : int; d_a : string; d_b : string }

val diff_pair :
  ?slack:float ->
  ?check_mem:bool ->
  subject ->
  subject ->
  Tape.t ->
  divergence option
(** Run the tape through both subjects (each in its own full pass, so
    fault streams align) and diff.  [check_mem] defaults to "both
    subjects elastic". *)

val shrink_tape :
  ?slack:float ->
  ?check_mem:bool ->
  ?budget:int ->
  subject ->
  subject ->
  Tape.t ->
  Tape.t
(** ddmin the op array under "the pair still diverges" (default budget
    400 predicate runs). *)

val pp_divergence : a:string -> b:string -> divergence -> string

(** {2 Scenario registry (fiber engine)} *)

val scenario : string -> (unit -> Sched.scenario) option
val scenario_names : unit -> string list
(** Built-ins: ["lost-update"] (planted race, the explorer self-test),
    ["olc-race"] (two writers and a scanning reader over one elastic
    OLC tree under a tight bound), ["olc-convert-scan"] (scans
    straddling compact/standard leaf boundaries during in-place
    conversions — the elasticity §4 edge), ["olc-multi-find"] (batched
    group descents interleaved with churn and conversions: per-cursor
    OLC restarts, checked bit-equivalent to a sequential find loop),
    ["wal-torn"] and ["wal-fsync"] (a group-committing WAL writer
    racing a deterministic crash lever — torn batch tail / dropped page
    cache; recovery from disk must land on an exact prefix of the
    logged history, no lower than the fsynced horizon at the crash),
    ["wal-wedge"] (the supervisor fencing and recovering a shard whose
    writer is parked anywhere, inside [Wal.commit] included, then
    writing on as its replacement while the zombie may finish its
    commit: every commit that returned was fsynced before the fence,
    no acknowledged record is lost, and a restart-style recovery is
    exactly the replacement's history),
    ["net-pipeline"] (the pure [ei_net] connection state machines under
    1-byte reads, short writes and a mid-frame connection drop: the
    reply stream must be exactly one in-order reply per complete
    request — [Applied] or [Busy] — with nothing lost, duplicated or
    invented for the torn frame). *)

(** {2 Serve exploration (perturbation engine)} *)

val explore_serve :
  ?shards:int ->
  ?scale:float ->
  seed:int ->
  rounds:int ->
  unit ->
  (int * string) option
(** Drive the ei_chaos soak (shadow-model oracle, zero-lost-ack and
    deep-validation acceptance) with seeded microsecond delays injected
    at the serving stack's yield and fault sites, stretching
    submit/apply/recover windows.  Round [r] uses chaos seed
    [seed + r]; returns [(round_seed, report)] of the first failing
    round.  Samples schedules — byte-exact replay is the tape and
    fiber engines' job. *)

(** {2 Artifacts} *)

type artifact =
  | A_diff of {
      tape : Tape.t;
      a : string;
      b : string;
      bound : int;
      slack : float;
      check_mem : bool;
      divergence : string;
    }
  | A_sched of {
      scenario : string;
      seed : int;
      schedule : int list;
      error : string;
    }
  | A_serve of { seed : int; shards : int; scale : float; error : string }

val write_artifact : path:string -> artifact -> unit

val replay_file : path:string -> (bool * string, string) result
