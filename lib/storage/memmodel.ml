(* Explicit node-size model.

   The paper measures packed C++ node layouts.  OCaml's GC heap has its
   own block headers, so instead of measuring the OCaml heap we account
   index memory with this model, which mirrors the C layouts the paper
   describes.  All "memory consumption" figures in the benchmarks are
   computed from these formulas; compression *ratios* — the quantity the
   paper's claims are about — are therefore preserved.

   Conventions:
   - pointers and tuple identifiers are 8 bytes ([word]);
   - every node has a fixed [node_header] (allocator/bookkeeping word plus
     an occupancy counter), as in the STX implementation;
   - a discriminating-bit entry is 1 byte when the key has at most 256
     bits (keys <= 32 B) and 2 bytes otherwise (§5.1);
   - a BlindiTree entry is 1 byte when the node capacity is < 255 and
     2 bytes otherwise. *)

let word = 8
let node_header = 16

(* STX-style B+-tree leaf: header, next/prev leaf pointers, and
   [capacity] slots of key bytes plus tuple id. *)
let std_leaf_bytes ~capacity ~key_len =
  node_header + (2 * word) + (capacity * (key_len + word))

(* B+-tree inner node: header, [capacity] separator keys and
   [capacity + 1] child pointers. *)
let inner_bytes ~capacity ~key_len =
  node_header + (capacity * key_len) + ((capacity + 1) * word)

(* Prefix-compressed B+-tree leaf (InnoDB/Oracle-style key truncation):
   header, next/prev pointers, one prefix-length byte, the shared prefix
   stored once, and [capacity] slots of suffix bytes plus tuple id.  With
   unshared keys (prefix_len = 0) this is a standard leaf plus one byte —
   §2's observation that prefix compression can even increase space. *)
let prefix_leaf_bytes ~capacity ~key_len ~prefix_len =
  node_header + (2 * word) + 1 + prefix_len
  + (capacity * (key_len - prefix_len + word))

let bits_entry_bytes ~key_len = if key_len * 8 <= 256 then 1 else 2
let tree_entry_bytes ~capacity = if capacity < 255 then 1 else 2

(* SeqTree compact leaf (§5): header, next/prev leaf pointers, BlindiBits
   array of [capacity - 1] entries, BlindiTree of [2^levels - 1] entries,
   and the tuple-id array.  Without breathing the tid array has [capacity]
   slots; with breathing it has [tid_slots] slots plus one indirection
   word (the array is reallocated as the node grows, §5.4).

   Levels 1-3 fit into node padding in the C layout (§6.4); we model that
   by charging nothing for trees of at most 7 entries. *)
let seqtree_bytes ~capacity ~key_len ~levels ~tid_slots ~breathing =
  let tree_entries = (1 lsl levels) - 1 in
  let tree_bytes =
    if tree_entries <= 7 then 0 else tree_entries * tree_entry_bytes ~capacity
  in
  let bits_bytes = (capacity - 1) * bits_entry_bytes ~key_len in
  let tid_bytes =
    if breathing then (tid_slots * word) + word else capacity * word
  in
  node_header + (2 * word) + bits_bytes + tree_bytes + tid_bytes

(* Heap images of the leaf payloads: the one [Bytes] block each leaf
   payload is, in the layout the two functions above price.  An image
   opens with a [leaf_image_header] of small fields (kind tag, count,
   capacity, ...); the variable regions follow, padded so the trailing
   tid words are 8-byte aligned.  The model charges a node header and
   two sibling words that the image does not hold (they live in the
   owning tree node), and a SeqTree model omits trees of <= 7 entries;
   DESIGN §3 gives [model - image] for both. *)
let leaf_image_header = 8

let align_word b = (b + word - 1) land lnot (word - 1)

(* Header, [capacity] inline keys, [capacity] tid words. *)
let std_leaf_image_bytes ~capacity ~key_len =
  leaf_image_header + align_word (capacity * key_len) + (capacity * word)

(* BlindiTree slots an image allocates: [2^levels - 1], at least one. *)
let tree_slots ~levels = max 1 ((1 lsl levels) - 1)

(* Header, BlindiBits ([capacity - 1] entries) and the BlindiTree at
   their entry widths, then [tid_slots] tid words. *)
let seqtree_image_bytes ~capacity ~key_len ~levels ~tid_slots =
  leaf_image_header
  + align_word
      (((capacity - 1) * bits_entry_bytes ~key_len)
      + (tree_slots ~levels * tree_entry_bytes ~capacity))
  + (tid_slots * word)

(* String B-Trie compact leaf (Ferragina & Grossi): per internal node a
   discriminating-bit entry plus two child slots, each 1 byte while the
   child space (2 * capacity values) fits a byte — the ~3 B/key layout of
   §5.1 — plus a root slot and the tuple-id array. *)
let stringtrie_bytes ~capacity ~key_len =
  let child = if 2 * capacity <= 256 then 1 else 2 in
  node_header + (2 * word) + child
  + ((capacity - 1) * (bits_entry_bytes ~key_len + (2 * child)))
  + (capacity * word)

(* SubTrie compact leaf: preorder discriminating-bit array plus the
   left-subtree-size array, each of [capacity - 1] entries (§5.1), and a
   full-capacity tuple-id array. *)
let subtrie_bytes ~capacity ~key_len =
  let size_entry = if capacity <= 256 then 1 else 2 in
  node_header + (2 * word)
  + ((capacity - 1) * (bits_entry_bytes ~key_len + size_entry))
  + (capacity * word)

(* HOT-substitute adaptive blind-trie node: [entries] partial keys
   (1 byte each) plus [entries] child/tid words, [discriminating_bits]
   position bytes and a small header.  Real HOT packs several trie
   levels into one node with a single header and bit-packed layouts, so
   the per-node overhead is charged at 8 bytes (not the generic
   [node_header]) and per actual entry, which calibrates the model to
   HOT's reported ~0.5x-of-B+-tree space for 64-bit keys [3]. *)
let hot_node_header = 8

let hot_node_bytes ~entries ~discriminating_bits =
  hot_node_header + discriminating_bits + entries + (entries * word)

(* Skip list node of a given tower height: key bytes, value word and
   [height] forward pointers. *)
let skiplist_node_bytes ~key_len ~height =
  node_header + key_len + word + (height * word)

let art_leaf_bytes ~key_len = node_header + key_len + word
