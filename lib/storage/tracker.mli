(** Incremental memory accounting for index structures.

    Indexes report node allocations/frees; the elasticity algorithm reads
    the running total in O(1). *)

type t

val create : unit -> t
val add : t -> int -> unit
val sub : t -> int -> unit
val bytes : t -> int
val reset : t -> unit
