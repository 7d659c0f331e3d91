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
    plus at most one partly filled chunk, and a load racing a growing
    {!append} on another domain still reads its row.

    The table is row storage, not a recovery log: it records no
    liveness, and a crashed shard is rebuilt from its {!Ei_wal} log,
    which rematerialises rows through {!restore_row}. *)

type t

val chunk_rows : int
(** Rows per key chunk: 4096. *)

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

val restore_row : t -> tid:int -> key:string -> unit
(** Rematerialise the row at [tid] with [key]: the {!Ei_wal} recovery
    path, which replays records holding tids from a previous process
    where the matching {!append}s never ran.  Grows the table as
    needed; intervening gap rows keep a key of zero bytes.
    Single-writer, like {!append}. *)
