(** The elastic B+-tree: the paper's primary contribution.

    Behaves exactly like the underlying STX-style B+-tree while the
    index fits comfortably inside its soft size bound; under memory
    pressure it incrementally converts leaves to the SeqTree compact
    representation (indirect key storage), and converts them back when
    pressure subsides.  See {!Elasticity} for the state machine and
    {!Ei_blindi.Seqtree} for the compact node. *)

type t

val create :
  ?leaf_capacity:int ->
  ?inner_capacity:int ->
  key_len:int ->
  load:(int -> string) ->
  Elasticity.config ->
  unit ->
  t
(** [create ~key_len ~load config ()] builds an elastic B+-tree.
    [load tid] must return the indexed key of row [tid]. *)

val of_sorted :
  ?leaf_capacity:int ->
  ?inner_capacity:int ->
  key_len:int ->
  load:(int -> string) ->
  Elasticity.config ->
  string array ->
  int array ->
  int ->
  t
(** Bulk-load from strictly increasing keys in O(n); elasticity applies
    to subsequent operations. *)

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update : t -> string -> int -> bool
val find : t -> string -> int option

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Ordered scan over up to [n] entries with keys [>= start]. *)

val count : t -> int
val key_len : t -> int
val memory_bytes : t -> int
val compact_leaves : t -> int
val state : t -> Ei_btree.Hysteresis.state
val transitions : t -> int
val stats : t -> Ei_btree.Btree.stats

val std_capacity : t -> int
(** Standard-leaf capacity of the underlying tree. *)

val set_size_bound : t -> int -> unit
(** Retune the soft size bound on the live tree (see
    {!Elasticity.set_size_bound}): the lever a global memory coordinator
    pulls to rebalance one budget across many trees. *)

val tree : t -> Ei_btree.Btree.t
(** The underlying B+-tree (for inspection). *)

val check_invariants : t -> unit
