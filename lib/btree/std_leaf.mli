(** Standard B+-tree leaf with internal key storage (STX-style): sorted
    keys stored inline in one [capacity * key_len] buffer, plus the
    matching tuple ids.  The representation the elastic index converts
    from and back to.  Every stored key must be [key_len] bytes long
    ([Invalid_argument] otherwise). *)

type t

val create : key_len:int -> capacity:int -> unit -> t
val of_sorted : key_len:int -> capacity:int -> string array -> int array -> int -> t

val count : t -> int
val capacity : t -> int
val is_full : t -> bool
val key_at : t -> int -> string
(** A fresh copy of slot [i]'s key. *)

val tid_at : t -> int -> int
val memory_bytes : t -> int

type locate_result = Found of int | Pred of int

val locate : t -> string -> locate_result
(** Binary search with predecessor semantics. *)

val find : t -> string -> int option
val update : t -> string -> int -> bool

type insert_result = Inserted | Full | Duplicate

val insert : t -> string -> int -> insert_result

type remove_result = Removed | Not_present

val remove : t -> string -> remove_result

val split : t -> t
(** Keep the first half in place; return the second half. *)

val absorb : t -> t -> unit
(** Append all entries of the second leaf (which must sort after). *)

val fold_from : t -> int -> ('a -> string -> int -> 'a) -> 'a -> 'a
val lower_bound : t -> string -> int
val check_invariants : t -> unit
