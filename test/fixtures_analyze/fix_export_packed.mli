(* Used only as a whole, packed as a first-class module. *)

val h : int
