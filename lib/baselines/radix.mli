(** Adaptive-span blind radix trie over fixed-length keys — the design
    space of HOT and ART.

    Inner nodes discriminate on one byte position; non-branching
    positions are skipped without storing the skipped bytes (a blind
    trie).  With [store_keys = false] (default), only tuple ids are kept
    and keys are loaded from the base table for verification and scans —
    our HOT substitute.  With [store_keys = true], leaves carry key
    copies, as in ART. *)

type t

val create :
  ?store_keys:bool -> key_len:int -> load:(int -> string) -> unit -> t

val count : t -> int
val key_len : t -> int

val memory_bytes : t -> int
(** Size under the memory model (computed by traversal). *)

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update : t -> string -> int -> bool
val find : t -> string -> int option

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Ordered scan over up to [n] entries with keys [>= start].  The
    boundary is located with at most two key loads per trie level. *)

val check_invariants : t -> unit
