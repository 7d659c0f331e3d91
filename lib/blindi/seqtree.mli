(** SeqTree: the paper's compact blind-trie node representation (§5).

    A SeqTree stores [n] keys *indirectly*: only the [n-1] discriminating
    bit positions (BlindiBits), a small auxiliary tree over the top trie
    levels (BlindiTree), and the tuple ids.  Searches verify their
    candidate by loading the key from the base table via a [load]
    closure.  [levels = 0] degenerates to the pure SeqTrie of Ferguson;
    [breathing > 0] sizes the tuple-id array to occupancy plus slack
    (§5.4).

    A node is one [Bytes] image laid out as
    {!Ei_storage.Memmodel.seqtree_image_bytes} sizes it: an 8-byte header
    whose byte 0 is a kind tag, BlindiBits and BlindiTree, then the tid
    slots as 8-byte words.  Only the count and the entries change in
    place, so an image never grows: an insert that needs another tid
    slot goes into a larger copy, returned as [Grown] for the owner to
    store in place of the old image.
    Reads whose offsets derive from image bytes are bounds-checked, so a
    torn optimistic read raises [Invalid_argument], never reads outside
    the image. *)

type t = private Bytes.t
(** The image; [(t :> Bytes.t)] is the node's one heap block. *)

val is_image : Bytes.t -> bool
(** Whether byte 0 carries the SeqTree kind tag. *)

val of_image : Bytes.t -> t
(** The node an image holds; [Invalid_argument] unless {!is_image}. *)

type load = int -> string
(** [load tid] fetches the indexed key of row [tid]. *)

val create :
  key_len:int -> capacity:int -> levels:int -> breathing:int -> unit -> t
(** [Invalid_argument] when a parameter overflows its header field:
    capacity or [key_len] above 65535, levels or breathing above 15. *)

val of_sorted :
  key_len:int -> capacity:int -> levels:int -> breathing:int ->
  string array -> int array -> int -> t
(** [of_sorted ... keys tids n] builds a node from the first [n] strictly
    increasing keys and their tids (keys are used only for construction
    and not retained). *)

val count : t -> int
val capacity : t -> int
val key_len : t -> int
val levels : t -> int
val is_full : t -> bool
val tid_at : t -> int -> int

val breathing : t -> int
(** The breathing slack the node was created with (0 = disabled). *)

val tid_slots : t -> int
(** Allocated tuple-id slots; under breathing this tracks occupancy
    plus slack ({!breathing}), otherwise it equals {!capacity}.  Fixed
    for the life of an image. *)

val bit_at : t -> int -> int
(** [bit_at t i] is BlindiBits entry [i] (0 <= i < count - 1): the first
    bit position where key [i] and key [i+1] differ.  Sanitizer support:
    {!Ei_check} recomputes these from loaded keys. *)

val tree_slot_count : t -> int
(** Number of BlindiTree slots ([2^levels - 1], at least 1). *)

val tree_slot : t -> int -> int
(** Raw BlindiTree entry: an index into BlindiBits, or {!absent_slot}. *)

val absent_slot : int
(** The ET marker stored in empty BlindiTree slots. *)

val memory_bytes : t -> int
(** Node size under the explicit memory model. *)

type locate_result =
  | Found of int  (** key present at this position *)
  | Pred of int   (** key absent; predecessor position, -1 if none *)

val locate : t -> load:load -> string -> locate_result
(** Predecessor-semantics search (§5.2). *)

val find : t -> load:load -> string -> int option
(** Point lookup returning the tuple id. *)

val update : t -> load:load -> string -> int -> bool
(** Overwrite the tuple id of an existing key; false if absent. *)

type insert_result =
  | Inserted
  | Grown of t
      (** breathing growth (§5.4): every tid slot was taken below
          capacity, so the key went into this fresh image with
          [count + breathing] tid slots (at most capacity); the argument
          image is unchanged and the owner stores this one instead *)
  | Full  (** the node holds [capacity] keys *)
  | Duplicate

val insert : t -> load:load -> string -> int -> insert_result

type remove_result = Removed | Not_present

val remove : t -> load:load -> string -> remove_result

val split : t -> left_capacity:int -> right_capacity:int -> t * t
(** Split into first-half / second-half nodes (§5.3). *)

val merge : t -> t -> load:load -> capacity:int -> levels:int -> t
(** Merge two adjacent nodes (all keys of the first below the second). *)

val with_capacity : t -> capacity:int -> levels:int -> t
(** Rebuild with a new capacity (elastic grow/shrink of a compact leaf). *)

val fold_from : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over tuple ids in key order starting at a position. *)

val iter : (int -> unit) -> t -> unit

val lower_bound : t -> load:load -> string -> int
(** Position of the first key [>=] the argument ([count t] if none). *)

val check_invariants : t -> load:load -> unit
(** Assert structural invariants (test support). *)
