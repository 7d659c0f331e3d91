(** SubTrie: the blind-trie node representation of Bumbulis and Bowman,
    used as the §6.4 comparison baseline.

    The trie's internal nodes are stored in preorder with, per node, its
    discriminating-bit position and the size of its left subtree
    (inclusive), which locates both children.  Searches descend the
    preorder arrays; like every blind trie, the candidate is verified by
    loading the key from the table.  Updates rebuild the preorder arrays
    from the in-order view. *)

type t

type load = int -> string

val of_sorted : key_len:int -> capacity:int -> string array -> int array -> int -> t

val count : t -> int
val capacity : t -> int
val tid_at : t -> int -> int
val memory_bytes : t -> int

type locate_result = Found of int | Pred of int

val locate : t -> load:load -> string -> locate_result
val find : t -> load:load -> string -> int option
val lower_bound : t -> load:load -> string -> int
val update : t -> load:load -> string -> int -> bool

type insert_result = Inserted | Full | Duplicate

val insert : t -> load:load -> string -> int -> insert_result

type remove_result = Removed | Not_present

val remove : t -> load:load -> string -> remove_result

val split : t -> left_capacity:int -> right_capacity:int -> t * t
val merge : t -> t -> load:load -> capacity:int -> t

val fold_from : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val check_invariants : t -> load:load -> unit
