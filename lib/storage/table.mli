(** In-memory row table: the database tuples indexes point into.

    A tuple identifier ([tid]) is the row's index in the table.  Compact
    index nodes store only tids and load keys from the table through
    {!loader}, modelling the paper's indirect key storage.  Loads are
    not counted here: the table is read from every shard domain, so a
    caller that wants the indirect-access cost wraps the loader in its
    own counter.

    Keys are fixed-length ([key_len] bytes, [Invalid_argument]
    otherwise), [key_len] bytes per row in fixed-size chunks of
    {!chunk_rows} rows.  Growth appends a chunk and never moves one, so
    the table holds the [n * key_len] bytes {!Memmodel} charges for it
    plus at most one partly filled chunk. *)

type t

val chunk_rows : int
(** Rows per key (and liveness) chunk: 4096. *)

val create : ?initial_capacity:int -> key_len:int -> unit -> t
(** [initial_capacity] (default 1024) is rounded up to whole chunks;
    presizing only pre-allocates, growth never copies. *)

val length : t -> int
val key_len : t -> int

val append : t -> string -> int
(** Append a row with the given indexed key; returns its tid. *)

val key : t -> int -> string
(** Load the indexed key of a row as a fresh string.  Raises
    [Invalid_argument] for a tid that is not a row. *)

val loader : t -> int -> string
(** [loader t] is the [load_key] closure handed to indexes. *)

(** {2 Row liveness}

    Per-row live marks, maintained by callers that treat the table as
    the recovery source of truth (the shard supervisor marks rows as
    their index entries are applied; a rebuild replays exactly the live
    rows).  A table holds no liveness until {!enable_liveness}, which
    {!Ei_shard.Serve.start} runs when a supervisor attaches, so an
    unsupervised table spends no byte on it.  Rows start dead.  Marks on
    distinct rows are safe from different domains (one byte per row, no
    shared read-modify-write), and the store is {e growth-stable}: marks
    live in chunks that are appended but never moved, so a domain
    marking row [tid] concurrently with an {!append} that grows the
    table can never lose its mark — the supervised serving layer relies
    on this.  ({!append} itself is still single-writer: marks may race a
    grow, appends may not race each other.) *)

val enable_liveness : t -> unit
(** Allocate the live marks, every existing row dead; a no-op when they
    exist.  Single-writer, like {!append}: run it before any domain
    marks rows. *)

val mark_live : t -> int -> unit
val mark_dead : t -> int -> unit
(** Raise [Invalid_argument] on a table without liveness. *)

val is_live : t -> int -> bool
(** [false] on a table without liveness. *)

val fold_live : t -> (int -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold [f tid key acc] over the live rows in tid order.  Raises
    [Invalid_argument] on a table without liveness, which could only
    rebuild nothing. *)

val restore_row : t -> tid:int -> key:string -> unit
(** Rematerialise the row at [tid] with [key], and mark it live if the
    table has liveness: the {!Ei_wal} recovery path, which replays
    records holding tids from a previous process where the matching
    {!append}s never ran.  Grows the table as needed; intervening gap
    rows stay dead with a key of zero bytes.  Single-writer, like
    {!append}. *)

val data_bytes : ?row_bytes:int -> t -> int
(** Size of the stored row data: [n * (key_len + row_bytes)]. *)
