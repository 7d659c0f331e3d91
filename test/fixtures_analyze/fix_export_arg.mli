(* Used only as a whole, as a functor argument. *)

val f : int -> int
val g : int
