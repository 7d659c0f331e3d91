(** Elastic skip list: the elastic index framework applied to a skip
    list, demonstrating the framework's generality (§3 lists skip lists
    among the applicable base indexes).

    Under memory pressure, runs of consecutive single-key nodes are
    converted into one segment node whose payload is a {!Ei_blindi.Seqtree}
    (compact, indirect key storage); segments grow, shrink, dissolve on
    underflow, and are randomly dissolved by searches in the expanding
    state — mirroring the elastic B+-tree's §4 rules. *)

type t

val std_capacity : int
(** 16: the standard capacity segments sit on.  Segment capacities are
    {!Ei_btree.Hysteresis.lift}[ ~std:16]'s progression, 32..128, and
    halving stops at 32 (an underflowing capacity-32 segment dissolves
    into singletons unless the list is shrinking). *)

val create : key_len:int -> load:(int -> string) -> size_bound:int -> unit -> t
(** An empty list under a soft size bound of [size_bound] bytes. *)

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update_value : t -> string -> int -> bool
val find : t -> string -> int option

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a

val count : t -> int
val key_len : t -> int
val memory_bytes : t -> int
val segments : t -> int
(** Number of compact segment nodes. *)

val state : t -> Ei_btree.Hysteresis.state

val set_size_bound : t -> int -> unit
(** Retune the soft size bound on the live list (coordinator lever). *)

val load : t -> int -> string
(** The base-table load closure the list was created with. *)

val fold_payloads :
  t ->
  ('a -> [ `Single of string * int | `Segment of Ei_blindi.Seqtree.t ] -> 'a) ->
  'a ->
  'a
(** Fold over level-0 node payloads in key order: singleton entries and
    compact segments.  Sanitizer support ({!Ei_check}) — treat segments
    as read-only. *)

val check_invariants : t -> unit
