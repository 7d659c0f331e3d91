(** B+-tree with pluggable leaf representations.

    Leaf-level structure modifications (overflow, underflow, merge) are
    delegated to a {!Policy.t}: the STX baseline always splits, the
    STX-SeqTree / STX-SubTrie variants keep every leaf compact, and the
    elastic policy ({!Ei_core.Elasticity}) converts leaves between
    representations in place.  Index size is tracked incrementally under
    the explicit memory model ({!Ei_storage.Memmodel}). *)

type t

type stats = {
  mutable conversions : int;    (** leaf representation changes *)
  mutable leaf_splits : int;
  mutable leaf_merges : int;
  mutable search_splits : int;  (** expansion-state splits from finds *)
}

val create :
  ?leaf_capacity:int ->
  ?inner_capacity:int ->
  key_len:int ->
  load:(int -> string) ->
  policy:Policy.t ->
  unit ->
  t
(** [create ~key_len ~load ~policy ()] is an empty tree over fixed-length
    keys.  [load tid] must return the indexed key of row [tid]; compact
    leaves use it for verification and scans.  Default capacities are 16
    slots for both leaves and inner nodes, as in the STX B+-tree. *)

val of_sorted :
  ?leaf_capacity:int ->
  ?inner_capacity:int ->
  key_len:int ->
  load:(int -> string) ->
  policy:Policy.t ->
  string array ->
  int array ->
  int ->
  t
(** [of_sorted ~key_len ~load ~policy keys tids n] bulk-loads a tree from
    [n] strictly increasing keys in O(n), equivalent to inserting them in
    order. *)

val insert : t -> string -> int -> bool
(** [insert t key tid] maps [key] to [tid]; false if [key] is present. *)

val remove : t -> string -> bool
(** [remove t key] deletes the mapping; false if absent. *)

val update : t -> string -> int -> bool
(** In-place value overwrite of an existing key; false if absent. *)

val find : t -> string -> int option
(** Point lookup.  Under an elastic policy in the expanding state, a
    find reaching a compact leaf may split it (§4). *)

val multi_find : ?group:int -> t -> string array -> int option array
(** Batched point lookup: slot [i] of the result is [find t keys.(i)].
    Keys are walked through the tree in lockstep groups of [group]
    (default 8) with software prefetch a round ahead of each descent
    step, so the per-level cache misses of a group overlap
    ({!Interleave}).  Expansion-state splits triggered by searches are
    replayed after the batch; results are unaffected. *)

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** [fold_range t ~start ~n f acc] folds over up to [n] entries with
    keys [>= start] in ascending order.  Compact leaves load each key
    from the table — the indirect-access scan cost of §2. *)

val iter : t -> (string -> int -> unit) -> unit
(** In-order iteration over all entries. *)

val fold_leaves : t -> ('a -> Policy.leaf_spec -> int -> 'a) -> 'a -> 'a
(** Fold over the leaves in key order with their representation spec and
    occupancy (used to report compact-leaf distributions). *)

val compact_cold : t -> batch:int -> spec:Policy.leaf_spec -> int
(** Access-aware compaction sweep: inspect up to [batch] leaves from a
    persistent cursor and convert standard leaves that were not accessed
    since the previous visit to [spec].  Returns the number of
    conversions.  Implements §4's "compact infrequently accessed nodes"
    policy variant. *)

val count : t -> int
(** Number of stored keys. *)

val key_len : t -> int
(** Length in bytes of every key in the tree. *)

val memory_bytes : t -> int
(** Current index size under the memory model. *)

val compact_leaves : t -> int
(** Number of leaves currently in a compact representation. *)

val stats : t -> stats

val std_capacity : t -> int
(** Standard-leaf capacity the tree was created with. *)

(** Cheap structural snapshot for external validators ({!Ei_check}).
    Leaf cells are the live mutable cells — treat them as read-only. *)
type introspection = {
  leaves : Leaf.t array;  (** leaves in key order, by tree walk *)
  leaf_depths : int array;  (** root-to-leaf depth per leaf *)
  leaf_bounds : (string option * string option) array;
      (** separator-derived [lo <= keys < hi) bounds per leaf *)
  chain : Leaf.t array;  (** leaves by [next] pointers from the leftmost *)
  inner_fanouts : int array;  (** separator keys in use per inner node *)
  inner_is_root : bool array;  (** aligned with [inner_fanouts] *)
  inner_seps : string array array;  (** separator keys per inner node *)
  inner_node_bytes : int;  (** memory-model bytes of one inner node *)
  inner_capacity : int;
  i_std_capacity : int;
  key_len : int;
  tracked_bytes : int;  (** the tracker's running total *)
  items : int;  (** the O(1) item counter *)
  compact_count : int;  (** the O(1) compact-leaf counter *)
  load : int -> string;
}

val introspect : t -> introspection

val check_invariants : t -> unit
(** Assert structural invariants: uniform depth, separator ordering,
    leaf-chain consistency, and that tracked size, item and compact-leaf
    counts match recomputation.  Test support. *)
