(** Standard B+-tree leaf with internal key storage (STX-style): sorted
    keys stored inline in one [capacity * key_len] buffer, plus the
    matching tuple ids.  The representation the elastic index converts
    from and back to.  Every stored key must be [key_len] bytes long
    ([Invalid_argument] otherwise).

    A leaf is one [Bytes] image laid out as
    {!Ei_storage.Memmodel.std_leaf_image_bytes} sizes it: an 8-byte
    header whose byte 0 is a kind tag, the inline keys, then the tids as
    8-byte words.  Only the count and the entries change in place.
    Every read is bounds-checked, so a torn optimistic read raises
    [Invalid_argument], never reads outside the image. *)

type t = private Bytes.t
(** The image; [(t :> Bytes.t)] is the leaf's one heap block. *)

val is_image : Bytes.t -> bool
(** Whether byte 0 carries the standard-leaf kind tag. *)

val of_image : Bytes.t -> t
(** The leaf an image holds; [Invalid_argument] unless {!is_image}. *)

val create : key_len:int -> capacity:int -> unit -> t
(** [Invalid_argument] when [capacity] or [key_len] is above 65535, the
    range of its header field. *)

val of_sorted : key_len:int -> capacity:int -> string array -> int array -> int -> t

val count : t -> int
val capacity : t -> int
val key_len : t -> int
val is_full : t -> bool
val key_at : t -> int -> string
(** A fresh copy of slot [i]'s key. *)

val tid_at : t -> int -> int
val memory_bytes : t -> int

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
