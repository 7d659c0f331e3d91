(** The indexed multi-column log table ADO plugin of §6.3.

    Rows are stored column-wise (timestamp, request type, object id,
    size) and indexed by the 16-byte (timestamp, object id) composite
    key.  The index is pluggable via {!Ei_harness.Registry.kind};
    compact indexes reconstruct keys from the columns. *)

type t

val create :
  ?initial_capacity:int -> index_kind:Ei_harness.Registry.kind -> unit -> t

val index_memory_bytes : t -> int
val data_bytes : t -> int
val index_name : t -> string
val index : t -> Ei_harness.Index_ops.t
val index_info : t -> string

val ado : t -> Ado.t
(** Package the table as an ADO plugin for {!Store.attach_ado}. *)
