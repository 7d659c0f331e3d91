(* In-memory row table: the database tuples that indexes point into.

   The table stores each row's indexed key (the bytes of the indexed
   column(s)).  A tuple identifier (tid) is the row's index in the table.
   Compact index nodes hold only tids and load keys from here, which is
   exactly the "indirect key storage" of the paper: every such access
   models the extra memory reference into the base table.  The table is
   row storage only, never a recovery source: a crashed shard is
   rebuilt from its WAL, which rematerialises rows with {!restore_row}.

   Row keys live in fixed-size chunks of [chunk_rows] rows: row [tid]'s
   key is the [key_len] bytes at [(tid mod chunk_rows) * key_len] of
   chunk [tid / chunk_rows].  Growth appends one chunk and never moves
   or copies an existing one, so the table holds the [n * key_len]
   bytes the memory model charges for it plus at most one partly
   filled chunk, and a load costs one extra read of the small chunk
   array.  Chunks that never move also keep a load racing a grow safe:
   the loader and the grower index the same chunk object whichever
   chunk array they read.  A load materialises a fresh string. *)

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits (* 4096 rows per chunk *)
let chunk_mask = chunk_rows - 1

type t = {
  key_len : int;
  mutable keys : Bytes.t array;
  (* chunk [c] holds the keys of rows [c * chunk_rows] onwards,
     [chunk_rows * key_len] bytes *)
  mutable n : int;
}

let key_chunk key_len = Bytes.make (chunk_rows * key_len) '\000'

(* Presizing only pre-allocates whole chunks: growth never copies. *)
let create ?(initial_capacity = 1024) ~key_len () =
  assert (key_len > 0);
  let chunks = max 1 ((initial_capacity + chunk_mask) / chunk_rows) in
  { key_len; keys = Array.init chunks (fun _ -> key_chunk key_len); n = 0 }

let length t = t.n
let key_len t = t.key_len
let capacity t = Array.length t.keys * chunk_rows

(* Fresh chunks are zero bytes, so gap rows of a restored table read as
   zeros.  The chunk array is replaced by a longer one sharing every
   existing chunk object, so a reader holding the old array still
   reaches the same bytes. *)
let grow t = t.keys <- Array.append t.keys [| key_chunk t.key_len |]

let set_key t tid key =
  if String.length key <> t.key_len then invalid_arg "Table: key length";
  Bytes.blit_string key 0 t.keys.(tid lsr chunk_bits)
    ((tid land chunk_mask) * t.key_len)
    t.key_len

let append t key =
  if t.n = capacity t then grow t;
  set_key t t.n key;
  t.n <- t.n + 1;
  t.n - 1

(* Bounds-checked against the row count; the chunk-array access is
   checked too, so a reader holding a chunk array from before a [grow]
   fails with [Invalid_argument] rather than reading past it. *)
let key t tid =
  if tid < 0 || tid >= t.n then invalid_arg "Table.key";
  Bytes.sub_string t.keys.(tid lsr chunk_bits)
    ((tid land chunk_mask) * t.key_len)
    t.key_len

(* Loader closure handed to indexes with indirect key storage. *)
let loader t = key t

(* WAL recovery rematerialises rows at the tids the log recorded, in a
   fresh process where [append] never ran.  Single-writer (the
   recovering domain), like [append].  Gap rows (tids never mentioned
   by any surviving record) keep zero bytes and are unreachable from
   any index. *)
let restore_row t ~tid ~key =
  assert (tid >= 0);
  while tid >= capacity t do
    grow t
  done;
  set_key t tid key;
  if tid >= t.n then t.n <- tid + 1
