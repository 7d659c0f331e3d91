(* Range partitioning by key prefix.

   A key's shard is a monotone function of its first 16 bits:
   [prefix16 * shards / 65536].  Monotonicity means each shard owns one
   contiguous key range and shard ids ascend with key order, so a
   cross-shard scan continues into successive shards with the same start
   key — every key in shard [s + 1] has a strictly larger 16-bit prefix
   than any key routed to shard [s], hence compares greater regardless
   of its remaining bytes.

   Uniform key distributions (YCSB's hashed keyspace) spread evenly;
   skewed prefixes make hot shards, which is exactly the imbalance the
   elastic memory coordinator compensates for. *)

type t = { shards : int }

let create ~shards =
  assert (shards >= 1 && shards <= 65536);
  { shards }

let prefix16 key =
  match String.length key with
  | 0 -> 0
  | 1 -> Char.code (String.unsafe_get key 0) lsl 8
  | _ ->
    (Char.code (String.unsafe_get key 0) lsl 8)
    lor Char.code (String.unsafe_get key 1)

let shard_of_key t key = prefix16 key * t.shards / 65536
