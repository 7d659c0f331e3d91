(** Fixed-length binary keys compared lexicographically.

    Integer encodings are big-endian, so lexicographic order equals
    numeric order.  Bits are numbered from zero starting at the most
    significant bit of byte 0, matching the paper's convention. *)

type t = string

val compare : t -> t -> int
(** Reference lexicographic order ([String.compare]). *)

val compare_fast : t -> t -> int
(** Word-at-a-time lexicographic comparison: 8-byte big-endian chunks
    via unsigned [int64] compare, byte tail, length tiebreak.  Agrees
    with {!compare} on every pair of strings; this is the kernel the
    index search paths use. *)

val compare_at : Bytes.t -> int -> int -> t -> int
(** [compare_at b off len k] orders the [len] bytes of [b] at [off]
    against [k] exactly as [compare_fast (Bytes.sub_string b off len) k]
    would, without materialising the string: the probe for keys stored
    inline in nodes and arenas.  Allocates nothing.  Raises
    [Invalid_argument] if the range lies outside [b], so a torn
    optimistic read of an offset never reads out of bounds. *)

val sort_prefix : t -> int
(** First 63 bits of the key (big-endian byte order, zero-padded) as a
    non-negative int.  Monotone in {!compare_fast}:
    [sort_prefix a < sort_prefix b] implies [compare_fast a b < 0] —
    a cheap immediate proxy for sorting key collections; only
    prefix-equal pairs need the full comparison. *)

val equal : t -> t -> bool

val of_int64 : int64 -> t
(** 8-byte big-endian encoding. *)

val of_int : int -> t
(** 8-byte big-endian encoding of a non-negative int. *)

val to_int : t -> int

val of_int_pair : int -> int -> t
(** [of_int_pair hi lo] is a 16-byte composite key, [hi] ordered first. *)

val bit : t -> int -> int
(** [bit k i] is bit [i] of [k] (0 or 1), MSB-first. *)

val first_diff_bit : t -> t -> int option
(** Position of the first differing bit between two equal-length keys,
    or [None] if equal. *)

val to_hex : t -> string
(** Two lowercase hex digits per byte. *)

val of_hex : string -> t
(** Inverse of {!to_hex}.  Raises [Failure] on a non-hex digit. *)

val random : Rng.t -> int -> t
(** [random rng len] is a uniformly random key of [len] bytes. *)
