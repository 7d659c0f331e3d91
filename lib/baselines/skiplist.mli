(** Skip list with internal key storage (Pugh) — a comparison baseline.
    Every node stores its key inline plus a tower of forward pointers,
    which is why skip lists consume more memory than the STX B+-tree. *)

type t

val create : ?seed:int -> key_len:int -> unit -> t

val count : t -> int
val memory_bytes : t -> int

val key_len : t -> int

val level : t -> int
(** Current list level: the height of the tallest live tower. *)

val max_level : int
(** Tower height cap (24). *)

val fold_towers : t -> ('a -> string -> int -> int -> 'a) -> 'a -> 'a
(** [fold_towers t f acc] folds [f acc key tid height] over all nodes in
    key order along level 0.  Sanitizer support ({!Ei_check}). *)

val fold_level : t -> int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** [fold_level t lvl f acc] folds [f acc key height] over the nodes
    linked at level [lvl] in key order. *)

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update : t -> string -> int -> bool
val find : t -> string -> int option

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a

val check_invariants : t -> unit
