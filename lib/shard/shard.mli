(** Range-partitioned shard router: N {!Ei_harness.Index_ops.t}
    instances (any registry kind) and the key-to-part map
    ({!Shard_map}).  The router adds no synchronisation — see {!Serve}
    for the domain-per-shard executor. *)

type t

val create : Ei_harness.Index_ops.t array -> t
(** [create parts] routes over [parts] in shard order.  All parts must
    share one [key_len]; requires at least one part. *)

val shard_count : t -> int
val parts : t -> Ei_harness.Index_ops.t array

val shard_of_key : t -> string -> int

val count : t -> int
