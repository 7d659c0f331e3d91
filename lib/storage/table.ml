(* In-memory row table: the database tuples that indexes point into.

   The table stores each row's indexed key (the bytes of the indexed
   column(s)).  A tuple identifier (tid) is the row's index in the table.
   Compact index nodes hold only tids and load keys from here, which is
   exactly the "indirect key storage" of the paper: every such access
   models the extra memory reference into the base table.

   Row keys live in fixed-size chunks of [chunk_rows] rows: row [tid]'s
   key is the [key_len] bytes at [(tid mod chunk_rows) * key_len] of
   chunk [tid / chunk_rows].  Growth appends one chunk and never moves
   or copies an existing one, so the table holds the [n * key_len]
   bytes the memory model charges for it plus at most one partly
   filled chunk, and a load costs one extra read of the small chunk
   array.  A load materialises a fresh string.

   Liveness (one byte per row, for a supervisor without a WAL to
   rebuild a shard from) is chunked the same way, and exists only once
   {!enable_liveness} ran: an unsupervised table holds none.  Chunks
   that never move are what keeps a mark racing a grow safe: the
   marker and every later reader index the same chunk object whichever
   chunk array they read.  A flat buffer would lose marks: a grow
   blits into a fresh buffer, and a mark landing in the old one
   afterwards vanishes. *)

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits (* 4096 rows per chunk *)
let chunk_mask = chunk_rows - 1

type t = {
  key_len : int;
  mutable keys : Bytes.t array;
  (* chunk [c] holds the keys of rows [c * chunk_rows] onwards,
     [chunk_rows * key_len] bytes *)
  mutable live : Bytes.t array;
  (* [[||]] until {!enable_liveness}; then one chunk per key chunk, one
     byte per row, '\001' = live.  Rows start dead, so an append alone
     never resurrects into a rebuild.  One whole byte per row keeps
     marks from two domains on different rows race-free (no
     read-modify-write of shared bits). *)
  mutable n : int;
}

let key_chunk key_len = Bytes.make (chunk_rows * key_len) '\000'
let live_chunk () = Bytes.make chunk_rows '\000'

(* Presizing only pre-allocates whole chunks: growth never copies. *)
let create ?(initial_capacity = 1024) ~key_len () =
  assert (key_len > 0);
  let chunks = max 1 ((initial_capacity + chunk_mask) / chunk_rows) in
  {
    key_len;
    keys = Array.init chunks (fun _ -> key_chunk key_len);
    live = [||];
    n = 0;
  }

let length t = t.n
let key_len t = t.key_len
let capacity t = Array.length t.keys * chunk_rows
let has_liveness t = Array.length t.live > 0

(* Fresh chunks are zero bytes, so gap rows of a restored table read as
   zeros.  The chunk arrays are replaced by longer ones sharing every
   existing chunk object, so a reader or marker holding the old array
   still reaches the same bytes. *)
let grow t =
  t.keys <- Array.append t.keys [| key_chunk t.key_len |];
  if has_liveness t then t.live <- Array.append t.live [| live_chunk () |]

(* Single-writer, like [append]: run it before any domain marks rows. *)
let enable_liveness t =
  if not (has_liveness t) then
    t.live <- Array.map (fun _ -> live_chunk ()) t.keys

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

let row_key t tid =
  Bytes.sub_string t.keys.(tid lsr chunk_bits)
    ((tid land chunk_mask) * t.key_len)
    t.key_len

(* Bounds-checked against the row count; the chunk-array access is
   checked too, so a reader holding a chunk array from before a [grow]
   fails with [Invalid_argument] rather than reading past it. *)
let key t tid =
  if tid < 0 || tid >= t.n then invalid_arg "Table.key";
  row_key t tid

(* Loader closure handed to indexes with indirect key storage. *)
let loader t = key t

(* --- Row liveness (recovery source of truth) ------------------------- *)

(* A marker always reaches an existing chunk: [tid] was appended (so
   its chunk was allocated) before any caller could hold it, and
   chunks are never moved, so even a stale read of [t.live] indexes
   the same chunk object a fresh read would. *)
let live_byte t tid = (t.live.(tid lsr chunk_bits), tid land chunk_mask)

let set_live t tid c =
  if not (has_liveness t) then invalid_arg "Table: liveness not enabled";
  assert (tid >= 0 && tid < t.n);
  let chunk, off = live_byte t tid in
  Bytes.set chunk off c

let mark_live t tid = set_live t tid '\001'
let mark_dead t tid = set_live t tid '\000'

let is_live_row t tid =
  let chunk, off = live_byte t tid in
  Char.equal (Bytes.get chunk off) '\001'

let is_live t tid = has_liveness t && tid >= 0 && tid < t.n && is_live_row t tid

let fold_live t f init =
  if not (has_liveness t) then invalid_arg "Table.fold_live: no liveness";
  let acc = ref init in
  for tid = 0 to t.n - 1 do
    if is_live_row t tid then acc := f tid (row_key t tid) !acc
  done;
  !acc

(* WAL recovery rematerialises rows at the tids the log recorded, in a
   fresh process where [append] never ran.  Single-writer (the
   recovering domain), like [append].  Gap rows (tids never mentioned
   by any surviving record) keep zero bytes and stay dead, so they
   are invisible to [fold_live] and unreachable from any index. *)
let restore_row t ~tid ~key =
  assert (tid >= 0);
  while tid >= capacity t do
    grow t
  done;
  set_key t tid key;
  if tid >= t.n then t.n <- tid + 1;
  if has_liveness t then mark_live t tid

(* Size of the row data itself (excluding any index), for the dataset-size
   baselines of §6.3: row payloads are fixed-size. *)
let data_bytes ?(row_bytes = 0) t = t.n * (t.key_len + row_bytes)
