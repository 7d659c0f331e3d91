(** Explicit node-size model mirroring the paper's packed C layouts.

    All "memory consumption" numbers in this repository come from these
    formulas rather than the OCaml heap, so compression ratios — the
    quantity the paper's claims are about — are preserved.  Conventions:
    8-byte words for pointers/tuple ids; a fixed per-node header;
    1-byte discriminating-bit entries for keys of at most 32 bytes. *)

val word : int
val node_header : int

val std_leaf_bytes : capacity:int -> key_len:int -> int
(** STX-style leaf: header, sibling pointers, [capacity] key+tid slots. *)

val inner_bytes : capacity:int -> key_len:int -> int
(** B+-tree inner node: separators plus child pointers. *)

val prefix_leaf_bytes : capacity:int -> key_len:int -> prefix_len:int -> int
(** Prefix-compressed leaf: shared prefix stored once, suffix slots. *)

val bits_entry_bytes : key_len:int -> int
val tree_entry_bytes : capacity:int -> int

val seqtree_bytes :
  capacity:int -> key_len:int -> levels:int -> tid_slots:int -> breathing:bool -> int
(** SeqTree compact leaf (§5): BlindiBits + BlindiTree + tuple-id array.
    Trees of at most 7 entries fit node padding and are charged 0. *)

val leaf_image_header : int
(** Bytes of small header fields at the front of every leaf image. *)

val align_word : int -> int
(** Round a byte count up to a whole number of words. *)

val tree_slots : levels:int -> int
(** BlindiTree slots a SeqTree image allocates: [2^levels - 1], at
    least one. *)

val std_leaf_image_bytes : capacity:int -> key_len:int -> int
(** Length of a standard leaf's heap image: header, [capacity] inline
    keys (padded to a word), [capacity] tid words.  The model's
    {!std_leaf_bytes} is this plus the node header and sibling words the
    image leaves to its tree node (DESIGN §3). *)

val seqtree_image_bytes :
  capacity:int -> key_len:int -> levels:int -> tid_slots:int -> int
(** Length of a SeqTree leaf's heap image: header, BlindiBits and
    BlindiTree (padded to a word), [tid_slots] tid words. *)

val subtrie_bytes : capacity:int -> key_len:int -> int
(** SubTrie compact leaf: preorder bit and subtree-size arrays. *)

val stringtrie_bytes : capacity:int -> key_len:int -> int
(** String B-Trie compact leaf: per-node bit plus two child pointers
    (~3 B/key, §5.1). *)

val hot_node_bytes : entries:int -> discriminating_bits:int -> int
(** HOT-substitute trie node, calibrated to HOT's reported space. *)

val skiplist_node_bytes : key_len:int -> height:int -> int

val art_leaf_bytes : key_len:int -> int
