(** Domain-per-shard serving layer with a global elastic memory
    coordinator and a self-healing shard supervisor.

    Each shard of a {!Shard.t} is owned by one domain draining a
    bounded MPSC request queue in batches; exclusive ownership makes
    any sequential registry index domain-safe behind its queue.
    Clients submit operation batches with {!exec} — partitioned by
    shard, applied in parallel, scans continuing across shards in
    follow-up rounds.

    The coordinator (optional) periodically re-splits one global soft
    size bound across the shards from their published sizes — the
    paper's elasticity policy lifted from one tree to the fleet: hot
    shards keep more standard leaves, cold shards compact first.  It
    owns no domain: the shard domains run its passes between batches,
    and each takes its own new bound at the start of its next batch.

    The supervisor and durability come together (optional, both or
    neither).  [start ~supervisor ~wal:cfg] gives every shard a
    {!Ei_wal.Wal} writer: mutations are framed as they apply and
    group-committed once per drained batch; results and waiter
    completions are withheld until the commit returns, so
    {e ack ⇒ framed + fsynced} (at the default cadence).  The
    supervisor makes the fleet self-healing: a shard domain that dies
    or wedges is detected (parked exception / heartbeat stall), its
    shard quarantined — requests for it wait for re-admission, bounded
    by their deadline — its part rebuilt from disk (newest valid
    fingerprinted checkpoint plus log replay, the same path as [start]
    and as a fresh process), and a fresh domain re-admitted.  Only a
    shard's current domain ever applies operations to its part.  The WAL is the only recovery
    source, so recovery never loses an acknowledged write and
    acknowledged writes survive process death, not just domain death.

    Fault injection ({!Ei_fault.Fault}): [start ~fault_prefix:p] arms
    sites [p.crash.shard<i>], [p.poison.shard<i>] and
    [p.queue.shard<i>.{drop,delay,refuse}] — all inert until a fault
    plan is configured.  With a WAL, additionally
    [p.wal.{torn,fsync,ckpt}.shard<i>] (see {!Ei_wal.Wal.faults}). *)

type op =
  | Insert of string * int
  | Remove of string
  | Update of string * int
  | Find of string
  | Scan of string * int

(** Per-operation result of {!exec}. *)
type outcome =
  | Applied of int
      (** applied; the int is the op's result — insert / remove /
          update 1 if it took effect else 0, find the tid or -1, scan
          the visited count *)
  | Rejected
      (** shed by a transient injected fault; safe to retry — the
          operation was not applied *)
  | Timed_out
      (** not acknowledged before the deadline (or failed by a shard
          crash): the operation may or may not have been applied *)

(** {b Exactly-one-outcome guarantee} (the contract the net front end
    builds on): {!exec} settles {e every} slot of its batch, whatever
    happens underneath.  A shard-domain crash or quarantine mid-batch
    leaves the affected slots at the pending sentinel, which settles
    as [Timed_out]; injected transient faults settle as [Rejected].
    No slot is ever skipped, so a network server can map outcomes
    positionally to typed wire replies ([Applied] / [Rejected] /
    [Timed_out]) and promise each in-flight request exactly one
    response instead of a dropped connection — the mapping
    [Ei_net.Server] implements and [test_net] asserts across
    crash-during-pipeline runs. *)

exception Crashed of string
(** An injected shard-domain crash (carries the fault site name);
    escapes into the supervisor, never to clients. *)

type coordinator_config = {
  global_bound : int;  (** bytes, split across the fleet *)
}

val default_coordinator : global_bound:int -> coordinator_config
(** The coordinator re-splits [global_bound] at most every 50 ms: the
    first shard domain to finish a batch once a pass falls due runs it,
    so an idle fleet makes no pass. *)

val split_bounds : coordinator_config -> sizes:int array -> int array
(** The coordinator's split as a pure function: half of the budget
    proportionally to current shard sizes, half evenly (so no shard
    gets less than half the even share), renormalised to sum to
    [global_bound], each bound at least 1.  [[||]] for an empty
    fleet. *)

type supervisor_config = {
  table : Ei_storage.Table.t;
      (** unused: recovery rebuilds from the WAL alone.  Kept, like
          {!default_supervisor}'s [~table], only because the [bench/e2e]
          fleet still passes it; the next change to that benchmark can
          drop both *)
  rebuild : int -> Ei_harness.Index_ops.t;
      (** fresh, empty part for shard [i] (same kind/key_len as the
          one it replaces) *)
}

val default_supervisor :
  table:Ei_storage.Table.t ->
  rebuild:(int -> Ei_harness.Index_ops.t) ->
  supervisor_config
(** The supervisor polls every 2 ms and diagnoses a wedged domain after
    1 s of heartbeat silence under queued load.  A wrong diagnosis of a
    slow-but-alive domain costs a rebuild, never an acknowledgement:
    the abandoned domain stops applying within one op, its WAL writer
    is fenced before recovery reads the log — a commit that has not
    returned by then raises instead of acknowledging — and recovery
    replays an exact LSN prefix whatever the abandoned domain still
    appends to its old segment.  The [wal-wedge] [ei sim sched]
    scenario explores exactly this race. *)

type t

val start :
  ?coordinator:coordinator_config ->
  ?supervisor:supervisor_config ->
  ?fault_prefix:string ->
  ?timeout_s:float ->
  ?wal:Ei_wal.Wal.config ->
  ?wal_restore:(tid:int -> key:string -> unit) ->
  Shard.t ->
  t
(** Spawn one domain per shard, plus the supervisor's domain when
    configured.  Each shard's request queue holds 64
    sub-batches (producers block when full) and its domain drains up to
    32 per wakeup; [fault_prefix] arms the injection sites; [timeout_s]
    is the default {!exec} deadline (none: block until applied).

    [wal] makes the shards durable: before any domain is spawned,
    every part — which must be handed over {e empty} — is recovered
    from [wal.dir] ({!Ei_wal.Wal.recover}), with [wal_restore] invoked
    per recovered [(tid, key)] so the caller can rematerialise
    backing-store rows ({!Ei_storage.Table.restore_row}).  [supervisor]
    and [wal] require each other: a failed commit kills the shard
    domain, which must be rebuilt from disk, or every later {!exec}
    without a deadline would wait on its queue forever; and the WAL is
    the only source a supervisor rebuilds from.

    @raise Invalid_argument when exactly one of [wal] and [supervisor]
    is given. *)

val stop : t -> unit
(** Join the supervisor, close the queues, drain remaining work, join
    all shard domains, and cleanly close the WAL writers (final fsync +
    clean-shutdown marker).  A bound left by a pass after the last
    batch is not applied.  The underlying
    indexes remain usable single-threaded afterwards. *)

val exec :
  ?collect:(string -> int -> unit) ->
  ?timeout_s:float ->
  t ->
  op array ->
  outcome array
(** Apply a batch: partition by shard, enqueue one sub-batch per
    shard, block until every sub-batch settles or the deadline
    ([timeout_s], defaulting to the [start] value) passes.  Outcomes
    are positional.  Scans continue across shards until satisfied; a
    scan whose continuation fails reports the failure, never a partial
    count as if complete.  [collect] receives the key and tid of every
    entry visited by scan ops (shared by all scans in the batch).

    A sub-batch for a quarantined shard first waits, bounded by the
    deadline, until the shard is re-admitted; past the deadline its ops
    settle as [Timed_out].  So only the shard's own domain ever applies
    an op, and every fault-site draw happens in the same fleet state on
    every equal-seed run, which the deterministic chaos soak relies
    on. *)

val shard_sizes : t -> int array
(** Per-shard sizes as last published by the shard domains. *)

val batches : t -> int
(** Sub-batches applied so far, fleet-wide. *)

val rebalances : t -> int
(** Coordinator passes completed so far, periodic and explicit. *)

val recoveries : t -> int
(** Shard recoveries completed so far. *)

val recovery_log : t -> (int * string * int) list
(** Completed recoveries, oldest first: shard index, cause (printed
    exception or wedge diagnosis), entries rebuilt from the WAL
    (checkpoint entries plus replayed records). *)

val wal_recoveries : t -> (int * Ei_wal.Wal.recovery) list
(** Per-shard start-time WAL recovery reports ([[]] without a WAL):
    checkpoint loaded, records replayed, torn tails truncated, clean
    marker seen. *)

val healthy : t -> bool
(** No shard is quarantined and no failure is awaiting recovery.  A
    shard-domain death parks its failure before acknowledging the
    in-flight batch, so a client that saw a [Timed_out] caused by a
    crash observes [healthy = false] until that shard is rebuilt and
    re-admitted — the barrier the deterministic chaos soak spins on. *)

val rebalance_with : t -> coordinator_config -> unit
(** Run one coordinator pass with an explicit config now: each shard's
    split replaces any it has not yet taken, and its domain applies it
    — with a WAL, logs it inside that batch's commit — at the start of
    its next batch.  The deterministic, client-driven rebalance of the
    chaos soak, which starts no periodic coordinator so its fault
    schedule stays a pure function of the seed. *)
