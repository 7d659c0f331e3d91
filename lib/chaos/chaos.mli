(** Deterministic chaos soak for the sharded serving layer.

    Seeded YCSB-style churn against a supervised, durable
    {!Ei_shard.Serve} fleet under an {!Ei_fault.Fault} plan: crashes,
    poisonings, queue faults, transient op failures, elastic bound
    slashes and WAL crashes — all drawn from per-site streams derived
    from one seed, so a failing run replays exactly.  Every
    acknowledged write is tracked in a shadow model; the run ends by
    reconciling the fleet against the shadow (zero lost acknowledged
    writes, zero phantoms), deep-validating every shard with
    {!Ei_check}, and recovering every shard from disk again (the
    restart check).

    Determinism: a single client issues one batch round at a time and
    barriers on {!Ei_shard.Serve.healthy} after any round with a
    timed-out operation, so fault-site draws never race a concurrent
    rebuild; rebalances are client-driven at fixed rounds.  Two runs
    with the same config agree on {!schedule_digest}. *)

type config = {
  seed : int;
  scale : float;  (** 1.0 = full soak; CI smoke uses ~0.05 *)
  shards : int;
  key_len : int;
  plan : (string * float) list;
  timeout_s : float;
      (** exec deadline; bounds the cost of a dropped sub-batch *)
  rebalance_every : int;
      (** rounds between client-driven rebalances; 0 = off *)
  progress : (string -> unit) option;
  wal_dir : string option;
      (** where the shards' group-commit WAL lives: this root (reset on
          entry, kept afterwards, with an fsynced acknowledgement
          journal beside it for {!verify}), or [None] for a temporary
          directory removed when the run ends.  The shards are durable
          and the restart check runs either way. *)
  kill_at : int;
      (** round at which a side domain SIGKILLs the whole process,
          mid-batch (0 = never).  The run does not return; a fresh
          process then proves recovery with {!verify}.  Requires
          [wal_dir]. *)
}

val default_plan : (string * float) list
(** Every fault kind the serving layer exposes, at soak-tuned
    probabilities — among them the WAL crash sites: torn batch tail
    and dropped page cache (drawn per group commit), checkpoint
    corruption (drawn per checkpoint cut, so at a much higher
    probability). *)

val default_config : seed:int -> config
(** Full scale, 4 shards, {!default_plan}, 0.5 s deadline, rebalance
    every 25 rounds, silent, WAL in a temporary directory. *)

type report = {
  rounds : int;
  ops : int;
  applied : int;
  rejected : int;
  timed_out : int;
  barriers : int;  (** post-anomaly waits for fleet health *)
  recoveries : int;
  recovery_log : (int * string * int) list;
  lost : int;
      (** settled-present keys missing or with the wrong tid — any
          non-zero value is a lost acknowledged write *)
  phantoms : int;  (** settled-absent keys still present *)
  unsettled : int;  (** keys left ambiguous by timed-out writes *)
  find_mismatches : int;
      (** acknowledged reads that contradicted the shadow mid-churn *)
  check_errors : int;
      (** {!Ei_check} [Error] findings across all shards, post-run *)
  fault_stats : (string * int * int) list;
      (** per-site (name, draws, fired) — the fault schedule *)
  fp_mismatches : int;
      (** restart check: shards whose recovered-from-disk fingerprint
          differs from the live part's *)
  restart_lost : int;
      (** restart check: settled-present keys missing after recovery *)
  restart_phantoms : int;
  restart_replayed : int;
  restart_fallbacks : int;  (** corrupt checkpoints skipped *)
  restart_torn : int;  (** torn tails truncated *)
  restart_check_errors : int;
      (** {!Ei_check} errors across the recovered parts *)
}

val ok : report -> bool
(** Zero lost, zero phantoms, zero find mismatches, zero check errors
    — and a clean restart check: zero fingerprint mismatches, zero
    keys lost or phantom after recovery from disk.
    Unsettled keys and shed (rejected / timed-out) operations are
    legal under injected faults. *)

val run : config -> report
(** Execute the soak.  Configures the global fault plan on entry and
    clears it before reconciliation; the fleet is stopped and every
    part deep-validated before returning. *)

val pp_report : Format.formatter -> report -> unit

val schedule_digest : report -> string
(** The fault schedule and recovery sequence serialised — the value
    two equal-seed runs must agree on byte-for-byte.  The digest keeps
    only the schedule-pure families (crash /
    poison / queue draws and the recoveries they cause): WAL crash
    sites draw per group commit, and batch boundaries are wall-clock,
    so their draw counts — and everything downstream of a WAL-fault
    recovery — are deliberately outside the replay-equality claim
    (the durability claims are checked directly instead). *)

(** {1 Fresh-process crash verification}

    The kill -9 protocol: run the soak with [wal_dir] set and
    [kill_at > 0] — the process SIGKILLs itself mid-batch (expect exit
    137) — then, from a fresh process, call {!verify} on the same
    directory.  The journal's intent blocks are fsynced before each
    round is submitted, so every acknowledged write the journal
    settles must be recovered; keys of the killed round without a
    durable outcome are unsettled and skipped. *)

type verify_report = {
  v_shards : int;
  v_settled : int;  (** journal keys reconciled (present + absent) *)
  v_unsettled : int;  (** journal keys skipped as ambiguous *)
  v_lost : int;
      (** settled-present keys missing or wrong after recovery — any
          non-zero value is a lost acknowledged write *)
  v_phantoms : int;  (** settled-absent keys present after recovery *)
  v_ckpt_entries : int;
  v_replayed : int;
  v_fallbacks : int;  (** corrupt checkpoints skipped *)
  v_torn : int;  (** torn tails truncated *)
  v_clean : int;  (** shards whose clean-shutdown marker was present *)
  v_check_errors : int;
      (** {!Ei_check} errors across the recovered shards *)
}

val verify : ?shards:int -> ?key_len:int -> dir:string -> unit -> verify_report
(** Recover every shard of a (possibly killed) soak from [dir], rebuild
    the acknowledged-write shadow from the journal, reconcile, and
    deep-validate.  [shards] and [key_len] must match the soak's
    config (defaults match {!default_config}).  Run with no fault plan
    configured. *)

val verify_ok : verify_report -> bool
(** Zero lost, zero phantoms, zero check errors. *)

val pp_verify : Format.formatter -> verify_report -> unit
