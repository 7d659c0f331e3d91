(** Zipfian distribution over ranks [0, n), following the YCSB generator.

    With [~scramble:true], ranks are hashed so popular items spread over
    the key space (YCSB's "scrambled zipfian"). *)

type t

val create : ?theta:float -> ?scramble:bool -> int -> t

val next : t -> Rng.t -> int
(** Draw a rank in [0, n). *)

val next_latest : t -> Rng.t -> max_item:int -> int
(** YCSB "latest" distribution: a rank in [0, max_item], skewed towards
    [max_item] (the most recent item). *)
