(** B+-tree with Optimistic Lock Coupling (Leis et al.), used by the
    multithreaded evaluation (§6.2): BTreeOLC with standard leaves and
    BTreeOLC-SeqTree with compact (indirect-key) leaves.

    Readers descend without locking and validate per-node version words,
    restarting on conflict; writers upgrade versions with a CAS.  Full
    nodes split eagerly during descent while the parent is locked.
    Deletions are lazy (no rebalancing), keeping the sibling chain used
    by range scans immutable.  Safe to use from multiple domains. *)

type t

type leaf_kind =
  | Olc_std
  | Olc_seqtree of { capacity : int; levels : int; breathing : int }
  | Olc_elastic of elastic_config
      (** elastic BTreeOLC: the variant §6.2 names but does not
          implement — leaf conversions happen in place under the leaf's
          write lock, with shared atomic size/state accounting *)

and elastic_config = { size_bound : int }
(** The soft size bound in bytes; the capacities and SeqTree shape are
    {!Ei_btree.Hysteresis}'s. *)

val default_elastic_config : size_bound:int -> elastic_config

val tracked_memory_bytes : t -> int
(** Size under the memory model, kept in an atomic counter by every
    structure change of every leaf kind: O(1) and safe to read under
    concurrency, unlike {!memory_bytes}, which it equals once mutators
    are quiescent. *)

val set_size_bound : t -> int -> unit
(** Retune the live soft bound (elastic trees only; no-op otherwise) and
    re-evaluate the state machine.  Safe from any domain — this is the
    lever the global memory coordinator pulls. *)

val elastic_state : t -> Ei_btree.Hysteresis.state option
(** The live elasticity state; [None] for a tree that is not elastic. *)

val elastic_compact_leaves : t -> int
val elastic_conversions : t -> int

val safe_loader :
  key_len:int -> table_length:(unit -> int) -> load:(int -> string) ->
  int -> string
(** Wrap a table loader so torn optimistic reads of tuple ids cannot trip
    bounds checks; out-of-range loads return a dummy key and version
    validation rejects the result. *)

val create :
  ?leaf_capacity:int ->
  ?inner_capacity:int ->
  ?kind:leaf_kind ->
  key_len:int ->
  load:(int -> string) ->
  unit ->
  t
(** [Invalid_argument] when a leaf header cannot hold the parameters:
    [key_len] above 65535, or for [Olc_elastic] a largest compact leaf
    that {!Ei_blindi.Seqtree.create} refuses. *)

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update : t -> string -> int -> bool
(** In-place value overwrite under the leaf's write lock; [false] if the
    key is absent. *)

val find : t -> string -> int option

val multi_find : ?group:int -> t -> string array -> int option array
(** Batched point lookup: slot [i] is [find t keys.(i)].  Walks up to
    [group] (default 8) keys in lockstep with software prefetch ahead
    of each descent step; every cursor follows the standard OLC read
    protocol, and restarts on version conflicts are per-cursor, so one
    writer never restarts the whole batch. *)

val key_len : t -> int

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Ordered scan: snapshots one leaf at a time under version validation,
    walking the immutable sibling chain. *)

val count : t -> int
(** Full traversal; call without concurrent mutators. *)

val memory_bytes : t -> int
(** Size under the memory model; call without concurrent mutators. *)

val fold_leaves :
  t ->
  ('a -> compact:bool -> capacity:int -> count:int -> bytes:int -> 'a) ->
  'a ->
  'a
(** Leaves in key order with representation snapshots (sanitizer
    support); call without concurrent mutators. *)

val fold_images : t -> ('a -> Bytes.t -> 'a) -> 'a -> 'a
(** Each leaf's payload image in key order: one {!Ei_btree.Std_leaf} or
    {!Ei_blindi.Seqtree} image, told apart by [is_image].  Sanitizer
    support: read only, and call without concurrent mutators. *)

val leaf_capacity : t -> int
(** Standard-leaf capacity. *)

val check_invariants : t -> unit
(** Single-threaded structural check (no concurrent mutators). *)

(** Test seam over a node's version word: the stubs stay typed at the
    node, so nothing else can reach them. *)
module For_tests : sig
  type node

  val leaf : unit -> node
  (** A fresh standard leaf, linked into no tree, at version 0. *)

  val version : node -> int
  val compare_and_set : node -> int -> int -> bool
  val read_lock : node -> int
  (** Spins while the lock bit is set; returns the unlocked version. *)

  val try_upgrade : node -> int -> bool
  (** CAS from the observed version to its locked form. *)

  val write_unlock : node -> unit
  (** Release with a version bump of 2. *)

  val write_abort : node -> unit
  (** Release with no bump. *)
end
