(** The one builder of a sharded serving fleet — a row table, an empty
    part per shard behind a {!Shard} router, and {!Serve} over them —
    and the batch driver its clients share.

    A fleet is supervised exactly when it has a WAL.  A failed WAL
    commit kills its shard domain, and without a rebuild from disk that
    shard's open queue would block every later {!Serve.exec} that has
    no deadline; and the WAL is the only source a supervisor rebuilds
    from.  A caller that wants crash recovery without keeping the log
    runs the WAL in a temporary directory it removes afterwards. *)

type t = { table : Ei_storage.Table.t; router : Shard.t; serve : Serve.t }

val share : global_bound:int -> shards:int -> int
(** A shard's even share of a global bound:
    [max 1 (global_bound / shards)]. *)

val stx_bound : key_len:int -> records:int -> pct:int -> int
(** The paper's elastic bound (§6): [pct] percent of STX's size for
    [records] keys of [key_len] bytes, 27 B per 16 B of key and tid. *)

val olc_elastic : global_bound:int -> shards:int -> Ei_harness.Registry.kind
(** An elastic BTreeOLC bounded by its {!share} of [global_bound]. *)

val part :
  Ei_harness.Registry.kind ->
  Ei_storage.Table.t ->
  int ->
  Ei_harness.Index_ops.t
(** [part kind table i] is shard [i]'s empty part, named
    [kind_name kind ^ "/" ^ i], loading keys from [table] through
    {!Ei_olc.Btree_olc.safe_loader}. *)

val start :
  shards:int ->
  part:(Ei_storage.Table.t -> int -> Ei_harness.Index_ops.t) ->
  ?key_len:int ->
  ?coordinator:Serve.coordinator_config ->
  ?timeout_s:float ->
  ?fault_prefix:string ->
  ?wal:Ei_wal.Wal.config ->
  unit ->
  t
(** Create the table ([key_len] 8 by default), the parts [part table i]
    and the {!Serve} domains.  With [wal] the shards recover from disk
    into their empty parts, restoring table rows, and the supervisor
    rebuilds a dead shard from its log into a fresh [part table i]. *)

val run : ?stop:bool Atomic.t -> t -> Serve.op array -> int
(** Run [ops] through {!Serve.exec} in sub-batches of 512 and return
    how many came back [Rejected] or [Timed_out].  Once [stop] is set,
    the run ends at the next sub-batch boundary. *)
