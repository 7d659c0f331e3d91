(** Bw-tree-style delta-chained leaf (Levandoski et al.): updates
    prepend delta records to a chain in front of a consolidated base
    node; the chain is folded into a fresh base once it exceeds a
    threshold.  The §6.1 baseline the paper omits from its plots as
    dominated (similar space to STX, slower operations). *)

type t

val of_sorted : key_len:int -> capacity:int -> string array -> int array -> int -> t

val count : t -> int
val capacity : t -> int
val memory_bytes : t -> int

val find : t -> string -> int option
val insert : t -> string -> int -> Std_leaf.insert_result
val remove : t -> string -> Std_leaf.remove_result
val update : t -> string -> int -> bool

val key_at : t -> int -> string
val tid_at : t -> int -> int
val lower_bound : t -> string -> int
val fold_from : t -> int -> ('a -> string -> int -> 'a) -> 'a -> 'a

val split : t -> t
val absorb : t -> t -> unit
val check_invariants : t -> unit
