(** A B+-tree leaf slot: the mutable cell through which the tree sees a
    leaf, whatever its current representation.

    The elastic index converts leaves between representations *in place*
    — the parent inner node keeps pointing at the same [t] while [repr]
    is swapped — so conversions never touch the upper tree levels.
    Leaves are chained through [next] for range scans; [hits] feeds the
    access-aware cold-compaction sweep. *)

type repr =
  | Std of Std_leaf.t                (** standard sorted-array leaf *)
  | Seq of Ei_blindi.Seqtree.t       (** compact SeqTree (§5) *)
  | Sub of Ei_blindi.Subtrie.t       (** compact SubTrie *)
  | Pre of Prefix_leaf.t             (** prefix-compressed leaf *)
  | Str of Ei_blindi.Stringtrie.t    (** compact String B-Trie *)
  | Bw of Bw_leaf.t                  (** delta-chained Bw-tree leaf *)

type t = { mutable repr : repr; mutable next : t option; mutable hits : int }
[@@ei.single_domain]

type load = int -> string

val count : t -> int

val is_compact : t -> bool
(** Whether the representation stores keys indirectly. *)

val spec : t -> Policy.leaf_spec

val entry_at : t -> load:load -> int -> string * int
(** Entry at a position in key order (loads the key when compact). *)

val memory_bytes : t -> int

val find : t -> load:load -> string -> int option

type insert_result = Inserted | Full | Duplicate

val insert : t -> load:load -> string -> int -> insert_result
val update : t -> load:load -> string -> int -> bool

type remove_result = Removed | Not_present

val remove : t -> load:load -> string -> remove_result

val lower_bound : t -> load:load -> string -> int

val min_key : t -> load:load -> string
(** First key (loaded for compact leaves); the leaf must be non-empty. *)

val fold_from : t -> load:load -> int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Fold (key, tid) in key order from a position; compact leaves load
    every key — the indirect scan cost of §2. *)

val entries : t -> load:load -> string array * int array
(** All entries as sorted parallel arrays (rebuild support). *)

val repr_of_spec :
  key_len:int ->
  std_capacity:int ->
  seq_levels:int ->
  seq_breathing:int ->
  Policy.leaf_spec ->
  string array ->
  int array ->
  int ->
  repr
(** Build a representation from sorted entries according to a spec. *)

val check_invariants : t -> load:load -> unit
