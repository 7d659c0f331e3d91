(** Prefix-compressed B+-tree leaf (InnoDB/Oracle-style key truncation,
    §2): the shared key prefix is stored once and each slot keeps only
    its suffix.  Operations behave like a standard leaf; the saving
    depends entirely on the key distribution. *)

type t

val of_sorted : key_len:int -> capacity:int -> string array -> int array -> int -> t

val count : t -> int
val capacity : t -> int
val key_at : t -> int -> string
val tid_at : t -> int -> int

val memory_bytes : t -> int

val find : t -> string -> int option
val update : t -> string -> int -> bool
val insert : t -> string -> int -> Std_leaf.insert_result
val remove : t -> string -> Std_leaf.remove_result

val split : t -> t
val absorb : t -> t -> unit
val fold_from : t -> int -> ('a -> string -> int -> 'a) -> 'a -> 'a
val lower_bound : t -> string -> int
val check_invariants : t -> unit
