(** Range partitioning by key prefix.

    [shard_of_key] is monotone in lexicographic key order (it maps the
    key's first 16 bits through [prefix * shards / 65536]), so each
    shard owns one contiguous key range and cross-shard scans visit
    shards in ascending order with an unchanged start key. *)

type t

val create : shards:int -> t
(** Requires [1 <= shards <= 65536]. *)

val shard_of_key : t -> string -> int
(** The owning shard, in [0, shards); monotone in key order. *)
