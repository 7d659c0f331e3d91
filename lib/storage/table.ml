(* In-memory row table: the database tuples that indexes point into.

   The table stores each row's indexed key (the bytes of the indexed
   column(s)).  A tuple identifier (tid) is the row's index in the table.
   Compact index nodes hold only tids and load keys from here, which is
   exactly the "indirect key storage" of the paper: every such access
   models the extra memory reference into the base table.

   Row keys live in one flat arena: row [tid]'s key is the [key_len]
   bytes at [tid * key_len], the [n * key_len] bytes the memory model
   charges for the table.  A load materialises a fresh string. *)

(* Liveness is stored in fixed-size chunks that are appended and never
   moved: growth allocates new chunks and a longer chunk array but
   leaves every existing chunk object in place, so a mark racing a
   grow always lands in the byte the next reader (and the recovery
   rebuild) will consult.  The flat-Bytes alternative loses marks: a
   grow blits into a fresh buffer, and a mark landing in the old one
   afterwards vanishes. *)
let live_chunk_bits = 12
let live_chunk = 1 lsl live_chunk_bits (* 4096 rows per chunk *)

type t = {
  key_len : int;
  mutable keys : Bytes.t;  (* capacity * key_len bytes of row keys *)
  mutable live : Bytes.t array;
  (* one byte per row, '\001' = live, chunked (see above).  Maintained
     by callers that treat the table as the recovery source of truth
     (the shard supervisor); rows start dead, so an append alone never
     resurrects into a rebuild.  One whole byte per row keeps marks
     from two domains on different rows race-free (no read-modify-write
     of shared bits). *)
  mutable n : int;
}

let live_chunks_for cap = (cap + live_chunk - 1) / live_chunk

let create ?(initial_capacity = 1024) ~key_len () =
  assert (key_len > 0);
  let cap = max 1 initial_capacity in
  {
    key_len;
    keys = Bytes.make (cap * key_len) '\000';
    live =
      Array.init (live_chunks_for cap) (fun _ -> Bytes.make live_chunk '\000');
    n = 0;
  }

let length t = t.n
let key_len t = t.key_len

let capacity t = Bytes.length t.keys / t.key_len

(* Fresh slots are zero bytes, so gap rows of a restored table read as
   zeros. *)
let grow t =
  let cap = capacity t in
  let keys = Bytes.make (2 * cap * t.key_len) '\000' in
  Bytes.blit t.keys 0 keys 0 (t.n * t.key_len);
  t.keys <- keys;
  (* Extend the chunk array by appending fresh chunks; existing chunk
     objects stay shared between the old and new arrays, so concurrent
     marks on already-appended rows are never lost. *)
  let have = Array.length t.live in
  let need = live_chunks_for (2 * cap) in
  if need > have then
    t.live <-
      Array.init need (fun c ->
          if c < have then t.live.(c) else Bytes.make live_chunk '\000')

let set_key t tid key =
  if String.length key <> t.key_len then invalid_arg "Table: key length";
  Bytes.blit_string key 0 t.keys (tid * t.key_len) t.key_len

let append t key =
  if t.n = capacity t then grow t;
  set_key t t.n key;
  t.n <- t.n + 1;
  t.n - 1

(* Bounds-checked against the row count; [Bytes.sub_string] checks the
   arena too, so a reader holding an arena from before a [grow] fails
   with [Invalid_argument] rather than reading past it. *)
let key t tid =
  if tid < 0 || tid >= t.n then invalid_arg "Table.key";
  Bytes.sub_string t.keys (tid * t.key_len) t.key_len

(* Loader closure handed to indexes with indirect key storage. *)
let loader t = key t

(* --- Row liveness (recovery source of truth) ------------------------- *)

(* A marker always reaches an existing chunk: [tid] was appended (so
   its chunk was allocated) before any caller could hold it, and
   chunks are never moved, so even a stale read of [t.live] indexes
   the same chunk object a fresh read would. *)
let live_byte t tid = (t.live.(tid lsr live_chunk_bits), tid land (live_chunk - 1))

let mark_live t tid =
  assert (tid >= 0 && tid < t.n);
  let chunk, off = live_byte t tid in
  Bytes.set chunk off '\001'

let mark_dead t tid =
  assert (tid >= 0 && tid < t.n);
  let chunk, off = live_byte t tid in
  Bytes.set chunk off '\000'

let is_live t tid =
  tid >= 0 && tid < t.n
  &&
  let chunk, off = live_byte t tid in
  Char.equal (Bytes.get chunk off) '\001'

let fold_live t f init =
  let acc = ref init in
  for tid = 0 to t.n - 1 do
    let chunk, off = live_byte t tid in
    if Char.equal (Bytes.get chunk off) '\001' then
      acc := f tid (Bytes.sub_string t.keys (tid * t.key_len) t.key_len) !acc
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
  mark_live t tid

(* Size of the row data itself (excluding any index), for the dataset-size
   baselines of §6.3: row payloads are fixed-size. *)
let data_bytes ?(row_bytes = 0) t = t.n * (t.key_len + row_bytes)
