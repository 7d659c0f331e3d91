(** Per-shard write-ahead log with group commit, fingerprinted
    checkpoints and crash recovery.

    A {!writer} is owned by exactly one shard domain.  During a batch
    the domain buffers mutation records ([log_insert] / [log_remove] /
    [log_update] / [log_bound]); one {!commit} at the batch boundary
    writes all buffered frames with a single [write] and at most one
    [fsync] — group commit.  With [fsync_every = 1] (default) the
    ordering guarantee is: {e every acknowledged op is framed and
    fsynced before its waiter is released} (Serve releases waiters
    only after [commit] returns).  [fsync_every = n > 1] fsyncs every
    n-th commit (relaxed durability: a crash may lose up to n - 1
    committed batches); [0] never fsyncs outside [close].

    Checkpoints are compact snapshots — Insert frames in key order plus
    a JSON manifest recording the covered LSN, the entry count, the
    chained FNV-1a fingerprint (identical to
    {!Ei_harness.Index_ops.fingerprint}) and the elastic size bound.
    Recovery loads the newest checkpoint that validates in full
    (falling back across [keep_checkpoints] retained generations) and
    replays every log record with a larger LSN, truncating a torn tail
    of the newest segment.  All decoding is total: corrupt bytes are
    rejected, never parsed or raised through. *)

exception Died of string
(** The writer crashed (injected fault, fence, or use after close).
    Deliberately distinct from {!Ei_fault.Fault.Injected}: a WAL fault
    kills the owning shard domain so the supervisor rebuilds from
    disk, rather than being absorbed as a transient op failure. *)

type config = {
  dir : string;  (** root; each shard writes under [<dir>/shard<i>/] *)
  fsync_every : int;
      (** commits per fsync: 1 = every commit (ack ⇒ durable),
          n > 1 = relaxed, 0 = only at [close] *)
  checkpoint_every : int;  (** commits per checkpoint; 0 = never *)
  segment_bytes : int;  (** rotate the log past this size *)
  keep_checkpoints : int;
      (** checkpoint generations retained (>= 2 gives corrupt-newest
          fallback); older ones and the segments they cover are pruned *)
}

val default_config : dir:string -> config
(** fsync every commit ([EI_WAL_FSYNC] overrides the cadence),
    checkpoint every 256 commits, 4 MiB segments, keep 2 checkpoints. *)

type faults = {
  f_torn : Ei_fault.Fault.site;  (** [<p>.wal.torn.shard<i>] *)
  f_fsync : Ei_fault.Fault.site;  (** [<p>.wal.fsync.shard<i>] *)
  f_ckpt : Ei_fault.Fault.site;  (** [<p>.wal.ckpt.shard<i>] *)
}

val faults : prefix:string -> shard:int -> faults
(** Register the three named crash sites for one shard.  [torn] tears
    the final frame of a batch write and kills the writer; [fsync]
    drops every byte since the last sync (page-cache loss) and kills
    the writer; [ckpt] flips one byte in the checkpoint being written
    (the writer survives — recovery must reject and fall back). *)

type writer

(** {1 Writing}  All of these are owner-domain-only. *)

val log_insert : writer -> string -> int -> unit
val log_remove : writer -> string -> unit
val log_update : writer -> string -> int -> unit

val log_bound : writer -> int -> unit
(** Log an elastic size-bound retune so elasticity survives restart. *)

val commit : writer -> part:Ei_harness.Index_ops.t -> unit
(** Group-commit the buffered records: one write, then fsync / rotate /
    checkpoint per the configured cadences.  [part] is the shard's
    index, snapshotted when a checkpoint falls due.  Raises {!Died} if
    the writer is fenced (on entry, or by another domain before the
    fsync returned — the commit then neither rotates nor checkpoints),
    closed, or an injected crash fires; buffered records may then be
    partially on disk but are, by construction, unacknowledged.  A
    commit that returns was therefore durable before any fence. *)

val close : writer -> unit
(** Clean shutdown: flush, fsync (whatever the cadence), write the
    clean marker, close.  Idempotent; a no-op beyond releasing the
    descriptor on a dead writer. *)

val durable_lsn : writer -> int
(** Last LSN covered by an fsync. *)

val last_lsn : writer -> int
(** Last LSN assigned to a record (buffered or written). *)

(** {1 Supervisor side} *)

val fence : writer -> unit
(** Mark the writer dead from another domain: every subsequent log or
    commit on it raises {!Died}.  The supervisor fences the old writer
    before reading the shard's files, so an abandoned (wedged) domain
    cannot keep appending, and a {!commit} already in flight raises
    {!Died} once its fsync returns instead of reporting success.  A
    zombie already inside a [write] can still finish that syscall, but
    only into its old segment: recovery always opens a fresh segment
    named by the next LSN, and replays each older segment only below
    its successor's first LSN, so late zombie bytes never enter a
    recovered state. *)

val dispose : writer -> unit
(** [fence] plus descriptor close — only safe once the owning domain
    has been joined. *)

(** {1 Recovery} *)

type recovery = {
  r_ckpt_seq : int;  (** checkpoint loaded, 0 = none *)
  r_ckpt_entries : int;
  r_ckpt_fallbacks : int;  (** corrupt newer checkpoints skipped *)
  r_replayed : int;  (** log records applied *)
  r_torn : int;  (** torn tails truncated *)
  r_last_lsn : int;
  r_bound : int;  (** recovered elastic bound, 0 = none *)
  r_clean : bool;  (** the clean-shutdown marker was present *)
}

val recover :
  ?faults:faults ->
  ?restore:(tid:int -> key:string -> unit) ->
  config ->
  shard:int ->
  part:Ei_harness.Index_ops.t ->
  writer * recovery
(** Rebuild [part] (which must be empty) from disk — newest valid
    checkpoint, then ordered log replay with torn-tail truncation —
    and open a writer on a fresh segment.  The replay is an exact LSN
    prefix: each segment counts only below its successor's first LSN
    (what a fenced writer appended to it later is ignored, torn bytes
    included), and an LSN gap inside that range is corruption.
    [restore] is invoked with every [(tid, key)] pair before it is
    inserted, so the caller can rematerialise backing-store rows (see
    {!Ei_storage.Table.restore_row}).  Also the way a {e fresh} WAL
    directory is opened (everything is zero).  Raises {!Died} only on
    corruption inside an interior segment's range or an LSN gap, which
    group commit never produces. *)

val verify : dir:string -> shard:int -> (recovery, string) result
(** [recover]'s own checkpoint pick and replay walk over
    [<dir>/shard<i>/], run read-only: [Ok r] is the record {!recover}
    would return on these files (a torn tail counted in [r_torn], not
    cut), [Error msg] the message it would raise {!Died} with (or an
    unreadable file's [Sys_error] message).  Writes nothing: no
    truncation, no marker removal, no metric. *)

(** {1 Read-only inspection (the [ei wal] CLI)} *)

type segment_info = {
  si_path : string;
  si_first_lsn : int;
  si_bytes : int;
  si_frames : int;
  si_last_lsn : int;
  si_torn : (int * string) option;
      (** byte offset and decode error of the torn tail {!verify}'s walk
          finds (and {!recover} would cut); [None] on every other
          segment, whatever bytes it holds past its last frame *)
}

type ckpt_info = {
  ci_seq : int;
  ci_lsn : int;
  ci_count : int;
  ci_fingerprint : int;
  ci_bound : int;
  ci_error : string option;  (** [None] iff the checkpoint validates *)
}

val shards : dir:string -> int list
(** Shard ids present under a WAL root. *)

val inspect_shard :
  dir:string -> shard:int -> segment_info list * ckpt_info list * bool
(** Segments (ascending LSN), checkpoints (newest first) and whether
    the clean-shutdown marker is present.  Touches nothing. *)

val manifest : dir:string -> shard:int -> Ei_util.Mini_json.t option
(** The newest parseable checkpoint manifest, verbatim. *)

val truncate_torn : dir:string -> shard:int -> (int, string) result
(** Cut the torn tail {!recover} would cut, where it would cut it, and
    nothing else: [Ok n] is the number of segments truncated (0 or 1),
    [Error msg] the message {!verify} refuses the shard with, in which
    case no file is touched. *)

(** {1 Test and chaos support} *)

val reset_dir : string -> unit
(** Destructively clear and recreate a WAL root (refuses [""] and
    ["/"]).  Chaos runs own their directory. *)

val remove_dir : string -> unit
(** Destructively remove a WAL root (refuses [""] and ["/"]): the end
    of a run that kept its log in a temporary directory. *)

val crash_torn : writer -> 'a
(** Deterministic crash lever for ei_sim schedules: tear the tail of
    the buffered batch onto disk, mark the writer dead, raise
    {!Died}. *)

val crash_unsynced : writer -> 'a
(** Drop everything since the last fsync (truncate to the synced
    prefix), mark the writer dead, raise {!Died}. *)
