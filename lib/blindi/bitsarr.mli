(** Packed fixed-capacity array of small non-negative integers, 1 or 2
    bytes per entry — the physical layout of BlindiBits arrays (§5.1). *)

type t

val create : width:int -> capacity:int -> t
(** [width] must be 1 or 2. *)

val width_for_bits : int -> int
(** Entry width (1 or 2 bytes) for entries holding one of [count]
    distinct values 0 .. count-1. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
