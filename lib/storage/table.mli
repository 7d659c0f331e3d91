(** In-memory row table: the database tuples indexes point into.

    A tuple identifier ([tid]) is the row's index in the table.  Compact
    index nodes store only tids and load keys from the table through
    {!loader}, modelling the paper's indirect key storage.  Every load is
    counted so benchmarks can report indirect-access costs.

    Keys are fixed-length ([key_len] bytes, [Invalid_argument]
    otherwise) and stored in one flat arena of [key_len] bytes per row,
    the layout {!Memmodel} charges for the table. *)

type t

val create : ?initial_capacity:int -> key_len:int -> unit -> t

val length : t -> int
val key_len : t -> int

val append : t -> string -> int
(** Append a row with the given indexed key; returns its tid. *)

val key : t -> int -> string
(** Load the indexed key of a row as a fresh string (counted as an
    indirect load).  Raises [Invalid_argument] for a tid that is not a
    row. *)

val loader : t -> int -> string
(** [loader t] is the [load_key] closure handed to indexes. *)

val loads : t -> int
val reset_loads : t -> unit

(** {2 Row liveness}

    Per-row live marks, maintained by callers that treat the table as
    the recovery source of truth (the shard supervisor marks rows as
    their index entries are applied; a rebuild replays exactly the live
    rows).  Rows start dead on {!append}.  Marks on distinct rows are
    safe from different domains (one byte per row, no shared
    read-modify-write), and the store is {e growth-stable}: marks live
    in fixed-size chunks that are appended but never moved, so a
    domain marking row [tid] concurrently with an {!append} that grows
    the table can never lose its mark — the supervised serving layer
    relies on this.  ({!append} itself is still single-writer: marks
    may race a grow, appends may not race each other.) *)

val mark_live : t -> int -> unit
val mark_dead : t -> int -> unit
val is_live : t -> int -> bool

val fold_live : t -> (int -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold [f tid key acc] over the live rows in tid order. *)

val restore_row : t -> tid:int -> key:string -> unit
(** Rematerialise the row at [tid] with [key] and mark it live: the
    {!Ei_wal} recovery path, which replays records holding tids from a
    previous process where the matching {!append}s never ran.  Grows
    the table as needed; intervening gap rows stay dead with a key of
    zero bytes.  Single-writer, like {!append}. *)

val data_bytes : ?row_bytes:int -> t -> int
(** Size of the stored row data: [n * (key_len + row_bytes)]. *)
