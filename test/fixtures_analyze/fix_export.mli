(* Export-rule fixture: one value per way a caller can reach it. *)

val unused : int
val test_only : int
val via_alias : int
val via_open : int
